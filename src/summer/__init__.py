"""Format-agnostic token-level merge engine.

Decomposes one branch's changes into string-rewriting rules and move rules,
then replays them on the other branch. Import the submodules: the package
root exports nothing, so `import summer` loads none of them.
"""

__version__ = "0.1.0"
