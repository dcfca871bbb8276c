"""Foldable cubical complexes, hyperbolization, dual complexes, path surgery.

The names below are read from their modules on first access (PEP 562), so a
process imports only the modules it uses: ``cubemill validate`` never loads
surgery or hyperbolization.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names it exports here, in the order of __all__
_MODULES = {
    "complexes": (
        "Cube",
        "CubicalComplex",
        "SimplicialComplex",
        "ValidationReport",
        "barsub",
        "cubical_subdivision",
        "validate_cubical",
        "verify_cw",
    ),
    "curvature": (
        "Hyperplane",
        "check_npc",
        "check_special",
        "hyperplane_coordinate",
        "hyperplanes",
    ),
    "decomposition": ("TreeOfSpaces", "build_all_trees", "build_tree"),
    "dual": (
        "DualComplex",
        "build_dual",
        "dual_mirror",
        "tops_containing",
        "verify_dual_axioms",
    ),
    "errors": (
        "CarrierViolation",
        "CellNotFound",
        "CubemillError",
        "FormatError",
        "InternalError",
        "NoCrossing",
        "NonSeparatingMirror",
        "NotABridge",
        "NotAdmissible",
        "NotFoldable",
        "NotInTile",
        "UnlabeledVertex",
        "Unsupported",
        "UnsupportedDimension",
    ),
    "folding": (
        "Mirror",
        "assert_folding",
        "find_folding",
        "framings",
        "mirror_separates",
        "mirrors",
        "parallelism_classes",
        "verify_folding",
        "verify_simplicial_folding",
    ),
    "formats": (
        "dumps_json",
        "parse_certificate",
        "parse_complex",
        "parse_folding",
        "serialize_certificate",
        "serialize_complex",
        "serialize_folding",
    ),
    "gromov": ("gromov_hyperbolize", "model", "verify_gromov_properties"),
    "surgery": (
        "check_edge_path",
        "contract_in_tile",
        "contract_loop",
        "crossings",
        "make_efficient",
        "minimal_bridge",
        "project_bridge",
        "random_loop",
        "surgery_step",
        "verify_certificate",
    ),
}

_MODULE_OF = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads are plain attribute lookups
    return value


def __dir__():
    return sorted({*globals(), *__all__})
