"""Reference implementations the property suites compare ``src/`` against.

Each module here is the simple, slow statement of what a faster code
path in ``src/`` promises to answer — a former ``src/`` path kept as
the oracle of its replacement, or a minimal model of a current one —
and the tests assert equality element for element.
"""
