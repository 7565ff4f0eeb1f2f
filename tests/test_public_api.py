"""The package's top-level surface: exactly the names its callers import.

The benchmark imports from the top level, so a trim that dropped one of its
names would fail every benchmark run at import; the benchmark's imports are
read from its source rather than copied here.
"""

import ast
from pathlib import Path

import frame_rigidity
from frame_rigidity import induced, subspaces, suites

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

# the public surface of FrameTuple: a frame is its stacked basis and shape,
# and its components are views of that basis; a flag stored beside them, or a
# second accessor of the basis, shows up here
FRAME_SURFACE = [
    "ambient",
    "components",
    "field",
    "from_json",
    "shape",
    "stacked_basis",
    "to_json",
]

# the public surface of the induced module: one line-oracle protocol, a
# stacked oracle asked by one stacked reconstruction; a per-line adapter or a
# second reconstruction entry added beside them shows up here
INDUCED_SURFACE = [
    "CONJUGATION",
    "IDENTITY",
    "SemilinearMap",
    "apply_tagged_stack",
    "apply_to_subspace",
    "apply_to_subspace_stack",
    "cubic_line_distortion_stack",
    "evert_conjugate",
    "evert_conjugate_stack",
    "induced_line_map_stack",
    "induced_on_frame",
    "induced_on_frame_stack",
    "random_semilinear",
    "random_semilinear_stack",
    "reconstruct_from_line_images_stack",
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


def test_frame_surface_is_pinned():
    public = sorted(name for name in dir(frame_rigidity.FrameTuple) if not name.startswith("_"))
    assert public == FRAME_SURFACE


def test_induced_surface_is_pinned():
    # the names the module itself binds at top level, not those it imports
    tree = ast.parse(Path(induced.__file__).read_text(encoding="utf-8"))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    assert sorted(name for name in defined if not name.startswith("_")) == INDUCED_SURFACE


def test_suites_hold_no_lattice_of_their_own():
    # the suites' meets and subspace images are the library's functions; a
    # private padded lattice added back to the suites shows up here
    assert suites.meet_stack is subspaces.meet_stack
    assert suites.apply_to_subspace_stack is induced.apply_to_subspace_stack
