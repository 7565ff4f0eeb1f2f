"""The package's top-level surface: exactly the names its callers import.

The benchmark imports from the top level, so a trim that dropped one of its
names would fail every benchmark run at import; the benchmark's imports are
read from its source rather than copied here.
"""

import ast
from pathlib import Path

import frame_rigidity

EXPORTED = [
    "CONJUGATION",
    "IDENTITY",
    "FrameRigidityError",
    "FrameTuple",
    "NonFiniteError",
    "SemilinearMap",
    "Subspace",
    "Tableau",
    "apply_to_subspace",
    "commeasurable",
    "commeasurable_via_complements",
    "evert",
    "induced_on_frame",
    "linked_partner",
    "polar_decompose",
    "__version__",
]

# the public surface of Subspace: one meet, one containment and one equality,
# all read from principal angles; a relative complement or a second route
# added beside them shows up here
SUBSPACE_SURFACE = [
    "ambient",
    "basis",
    "contains",
    "dim",
    "equals",
    "field",
    "from_columns",
    "from_json",
    "full",
    "intersect",
    "orthocomplement",
    "projector",
    "sum",
    "to_json",
    "zero",
]

BENCHMARK_CHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"


def _top_level_imports(path: Path) -> set:
    """Names that ``from frame_rigidity import ...`` statements in the file bind."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "frame_rigidity"
        for alias in node.names
    }


def test_all_is_pinned():
    assert frame_rigidity.__all__ == EXPORTED


def test_every_exported_name_resolves():
    for name in frame_rigidity.__all__:
        assert getattr(frame_rigidity, name) is not None


def test_benchmark_imports_are_exported():
    imported = _top_level_imports(BENCHMARK_CHECKS)
    assert imported, "the benchmark's checks import nothing from frame_rigidity"
    assert imported <= set(frame_rigidity.__all__)


def test_subspace_surface_is_pinned():
    public = sorted(name for name in dir(frame_rigidity.Subspace) if not name.startswith("_"))
    assert public == SUBSPACE_SURFACE
