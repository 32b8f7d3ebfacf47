"""``compare``: flags a 2x slowdown, passes an identical pair."""

import json

from benchmarks.e2e.compare import compare, main
from benchmarks.e2e.spec import summarize


def _document(scale=1.0, jitter=0.01):
    def entry(values):
        return {"unit": "x", **summarize(values)}

    wobble = [1 - jitter, 1, 1 + jitter, 1, 1 - jitter]
    return {
        "workloads": {
            "web_serve": {
                "end_to_end": {
                    "kb_ready_s": entry([0.7 * scale * w for w in wobble]),
                    "read_qps": entry([400 / scale * w for w in wobble]),
                    "fused_f1": entry([0.85] * 5),
                },
                "output_digests": ["abc"],
            }
        }
    }


def _verdicts(rows):
    return {row["metric"]: row["verdict"] for row in rows}


def test_identical_pair_is_ok():
    rows = compare(_document(), _document())
    assert set(_verdicts(rows).values()) == {"ok"}


def test_twofold_slowdown_regresses_both_directions_of_better():
    verdicts = _verdicts(compare(_document(), _document(scale=2.0)))
    assert verdicts == {
        "kb_ready_s": "regressed",  # lower is better, it doubled
        "read_qps": "regressed",  # higher is better, it halved
        "fused_f1": "ok",
    }
    assert set(_verdicts(compare(_document(scale=2.0), _document()))
               .values()) == {"ok"}


def test_spread_wider_than_bound_is_unresolved():
    noisy = _document(jitter=0.3)
    verdicts = _verdicts(compare(noisy, _document(scale=1.1, jitter=0.3)))
    assert verdicts["kb_ready_s"] == "unresolved"
    assert verdicts["fused_f1"] == "ok"


def test_exit_code_and_digest_note(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    slow = _document(scale=2.0)
    slow["workloads"]["web_serve"]["output_digests"] = ["xyz"]
    a.write_text(json.dumps(_document()))
    b.write_text(json.dumps(slow))
    assert main([str(a), str(a)]) == 0
    assert main([str(a), str(b)]) == 1
    assert "output_digest differs on web_serve" in capsys.readouterr().out
