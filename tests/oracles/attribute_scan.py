"""``AttributeResolver.run`` without the blocking indexes.

The scan ``src/`` promises to answer: variants in descending support,
each compared against *every* canonical accepted so far, in acceptance
order, through the four merge checks (qualifier wrapper, token
permutation, misspelling window, value profile).  Whatever candidate
generation the resolver puts in front of those checks must leave the
verdict — ``canonical_map`` and ``sub_attributes`` — unchanged.

``_run_brute`` / ``_find_target_brute`` are the resolver's former
reference path, moved here unchanged.
"""

from __future__ import annotations

from repro.entity.resolution import (
    AttributeResolution,
    AttributeResolver,
    _content_tokens,
    _specialising_parent,
    _strip_qualifiers,
)
from repro.textproc.normalize import is_probable_misspelling

__all__ = ["ScanAttributeResolver"]


class ScanAttributeResolver(AttributeResolver):
    """:class:`AttributeResolver` scanning every accepted canonical."""

    def run(self) -> AttributeResolution:
        resolution = AttributeResolution(self.class_name)
        names = sorted(
            self.support, key=lambda name: (-self.support[name], name)
        )
        self._tokens_cache = {name: _content_tokens(name) for name in names}
        return self._run_brute(resolution, names)

    def _run_brute(self, resolution: AttributeResolution, names) -> AttributeResolution:
        """Reference path: scan every accepted canonical per variant."""
        canonical: list[str] = []
        for name in names:
            target = self._find_target_brute(name, canonical)
            if target is None:
                parent = _specialising_parent(name)
                if parent is not None and parent in self.support:
                    resolution.sub_attributes[name] = parent
                canonical.append(name)
            else:
                resolution.canonical_map[name] = target
        return resolution

    def _find_target_brute(self, name: str, canonical: list[str]) -> str | None:
        stripped = _strip_qualifiers(name)
        tokens = self._tokens_cache[name]
        profile = self.value_profiles.get(name)
        name_len = len(name)
        for target in canonical:
            self.stats.tier3_scored += 1
            if stripped == target:
                return target
            if tokens and tokens == self._tokens_cache[target]:
                return target
            if abs(name_len - len(target)) <= 2 and is_probable_misspelling(
                name, target, normalized=True
            ):
                return target
            if profile and self._profiles_match(profile, target):
                return target
        return None
