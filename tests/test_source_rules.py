"""Rules on the package source that no runtime test would catch, and the
reach of the served paths into it."""

import ast
import contextlib
import doctest
import functools
import importlib.util
import io
import runpy
import sys
import tempfile
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "dualis"
REPO = SOURCE.parent.parent


@functools.lru_cache(maxsize=None)
def _tree(path: Path) -> ast.Module:
    """The syntax tree of a file, parsed once; the rules only read it."""
    return ast.parse(path.read_text(), filename=str(path))


def test_no_assert_statements():
    # python -O strips asserts, so internal checks raise typed errors instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Assert)
    ]
    assert not found


def _referenced_names(path: Path) -> set:
    """Every identifier a module uses, imports or reads as an attribute."""
    names = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_trivariate_gcds_stay_off_the_counting_paths():
    # square-freeness and coprimality of forms are certified on a pencil of
    # lines; the public gcds and the radical take one variable and are
    # public API only
    gcds = {"poly_gcd", "poly_gcd_many", "radical"}
    found = [
        f"{path.name}: {name}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name not in {"exact.py", "__init__.py"}
        for name in sorted(_referenced_names(path) & gcds)
    ]
    assert not found


def _callees(node) -> set:
    """The callee of every call in a node, as source text (``MultiPoly._trusted``)."""
    return {ast.unparse(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}


def test_trusted_construction_stays_in_exact():
    # MultiPoly._trusted skips validation; only the ring's own results,
    # clean by construction, may use it: the product, the univariate view's
    # coefficients and the parser's terms
    found = [path.name for path in sorted(SOURCE.glob("*.py"))
             if path.name != "exact.py" and "_trusted" in _referenced_names(path)]
    assert not found
    tree = _tree(SOURCE / "exact.py")
    methods = [(f"{cls.name}.{fn.name}", fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
               for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    functions = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    assert sorted(name for name, fn in methods + functions
                  if "MultiPoly._trusted" in _callees(fn)) == [
        "MultiPoly.__mul__", "UniPolyView.__init__", "parse_poly"]


def test_integer_terms_are_cached_by_one_writer():
    # a polynomial's integer terms live in its private _integer slot, which
    # both MultiPoly constructors clear and exact._integer_terms alone fills
    # and reads; nothing else names the slot
    writers, readers, names = [], [], 0
    for path in sorted(SOURCE.glob("*.py")):
        tree = _tree(path)
        functions = [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)] + [
            (f"{cls.name}.{fn.name}", fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        for name, fn in functions:
            for n in ast.walk(fn):
                if isinstance(n, ast.Call) and ast.unparse(n.func) == "object.__setattr__" \
                        and ast.unparse(n.args[1]) == "'_integer'":
                    writers.append(f"{path.name}: {name}")
                elif isinstance(n, ast.Attribute) and n.attr == "_integer":
                    readers.append(f"{path.name}: {name}")
        names += sum(isinstance(n, ast.Attribute) and n.attr == "_integer"
                     or isinstance(n, ast.Constant) and n.value == "_integer"
                     for n in ast.walk(tree))
    assert sorted(writers) == ["exact.py: MultiPoly.__init__", "exact.py: MultiPoly._trusted",
                               "exact.py: _integer_terms"]
    assert set(readers) == {"exact.py: _integer_terms"}
    from dualis.exact import MultiPoly
    assert "_integer" in MultiPoly.__slots__
    assert names == len(writers) + len(readers) + 1  # and the entry in __slots__


def test_one_number_literal_and_one_token_rule():
    # the number literal of the polynomial and rational grammars is spelled
    # once, as exact._NUMBER, and both token rules read it; parse_poly reads
    # each token's kind from its group without matching it again, and hands
    # its terms to MultiPoly._trusted instead of the validating constructor
    tree = _tree(SOURCE / "exact.py")
    rules = {target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if isinstance(target, ast.Name)}
    digit_patterns = [n.value for n in ast.walk(tree)
                      if isinstance(n, ast.Constant) and isinstance(n.value, str)
                      and "\\d" in n.value]
    assert digit_patterns == [rules["_NUMBER"].value]
    for name in ("_TOKEN", "_RATIONAL"):
        assert any(_reads(n, "_NUMBER") for n in ast.walk(rules[name])), name
    called = _callees(_functions(SOURCE / "exact.py")["parse_poly"])
    assert not {name for name in called if name.endswith("fullmatch")}
    assert "MultiPoly._trusted" in called and "MultiPoly" not in called


@functools.lru_cache(maxsize=None)
def _functions(path: Path) -> dict:
    """Every function a module defines, by name."""
    return {node.name: node for node in ast.walk(_tree(path))
            if isinstance(node, ast.FunctionDef)}


def test_one_univariate_gcd():
    # exact._uni_gcd is the only univariate gcd, and it holds both routes:
    # the packed one (the integer gcd of the values at 2^K, read by the
    # signed digit reader, up to its digit bound) and Brown's modular one
    # with its prime sequence and its gcd modulo p, each candidate checked
    # by the one trial division; the other gcds are the public one-variable
    # adapters onto it, and one remainder sequence is left: the
    # pseudo-remainder of integer lists, read by the subresultant chain and
    # by the reduction of integer lists modulo a list; no MultiPoly is
    # divided by another
    gcds = sorted(f"{path.name}: {name}" for path in sorted(SOURCE.glob("*.py"))
                  for name in _functions(path) if "gcd" in name)
    assert gcds == ["exact.py: _gcd_mod", "exact.py: _gcd_primes", "exact.py: _uni_gcd",
                    "exact.py: poly_gcd", "exact.py: poly_gcd_many"]
    remainders = sorted(f"{path.name}: {name}" for path in sorted(SOURCE.glob("*.py"))
                        for name in _functions(path) if "rem" in name or "prs" in name.lower())
    assert remainders == ["exact.py: _uni_prem"]
    assert _readers("_uni_prem") == ["exact.py: _reduced", "exact.py: _subresultant_chain"]
    defined = {name for path in sorted(SOURCE.glob("*.py")) for name in _functions(path)}
    assert not defined & {"_pseudo_rem", "_content_wrt", "_coeff_list", "_from_coeff_list",
                          "try_exact_div", "exact_div", "divides", "__floordiv__"}
    assert {"exact.py: poly_gcd", "exact.py: squarefree_part"} <= set(_readers("_uni_gcd"))
    body = {n.id for n in ast.walk(_functions(SOURCE / "exact.py")["_uni_gcd"])
            if isinstance(n, ast.Name)}
    assert {"_gcd_primes", "_gcd_mod", "_try_uni_quo", "_digits", "_at",
            "_GCD_DIGIT_BITS"} <= body
    assert "math.gcd" in _callees(_functions(SOURCE / "exact.py")["_uni_gcd"])


def test_cofactors_come_with_the_gcd():
    # _uni_gcd returns the quotients of its operands by the gcd, which its
    # certificate computed, so no function divides by a gcd it has just
    # taken: the trial division is read by _uni_gcd alone, and the
    # quotient that raised on a remainder is gone
    defined = {name for path in sorted(SOURCE.glob("*.py")) for name in _functions(path)}
    assert "_uni_quo" not in defined
    assert _readers("_try_uni_quo") == ["exact.py: _uni_gcd"]
    takers = set(_readers("_uni_gcd")) - {"exact.py: _uni_gcd"}
    assert {"elimination.py: _pair_frame_count", "elimination.py: _sqfree_part",
            "exact.py: squarefree_part"} <= takers
    assert not takers & (set(_readers("_uni_quo")) | set(_readers("_try_uni_quo")))


def test_one_witness_walk_one_polar_builder_no_line_schedule():
    # the witness sequence is walked in exact.witnesses alone, every polar
    # is built by elimination.polar, and a curve's slice line is the one its
    # square-free certificate found, so corpus keeps no schedule of lines
    walkers = sorted(f"{path.name}: {name}" for path in sorted(SOURCE.glob("*.py"))
                     for name, node in _functions(path).items()
                     if any(isinstance(n, ast.Name) and n.id == "WITNESS_SEQUENCE"
                            for n in ast.walk(node)))
    assert walkers == ["exact.py: witnesses"]
    # (a property such as SingularLocus.polar_count reads a count, builds nothing)
    polars = sorted(f"{path.name}: {name}" for path in sorted(SOURCE.glob("*.py"))
                    for name, node in _functions(path).items() if "polar" in name.lower()
                    and not any(isinstance(d, ast.Name) and d.id == "property"
                                for d in node.decorator_list))
    assert polars == ["elimination.py: polar"]
    assert not [name for name in _referenced_names(SOURCE / "corpus.py") if "SCHEDULE" in name]


def test_one_chart_per_dual_curve():
    # every dual is taken on the chart w = 1 of the curve's own coordinates,
    # so dualgeom keeps no chart schedule, no loop over charts and no
    # coordinate change, the frame schedule of elimination stays the only
    # one, and psi is expanded from F's integer terms, not substituted
    path = SOURCE / "dualgeom.py"
    names = _referenced_names(path) | set(_functions(path))
    assert not [name for name in names if "SCHEDULE" in name.upper()]
    assert not names & {"_adjugate", "apply_matrix", "mat_transpose", "_line_basis",
                        "slice_line", "substitute"}
    defined = {name for path in sorted(SOURCE.glob("*.py")) for name in _functions(path)}
    assert "mat_transpose" not in defined
    tree = _tree(path)
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, (ast.For, ast.While))
                for n in ast.walk(node)
                if isinstance(n, ast.Name) and n.id == "_dual_in_chart"]


def _analysis_call(node) -> bool:
    """Is node a call of singular_analysis or singular_locus?"""
    if not isinstance(node, ast.Call):
        return False
    callee = node.func
    name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
    return name in {"singular_analysis", "singular_locus"}


def test_singular_analysis_is_read_by_field_name():
    # a curve's singular analysis is one SingularLocus record, read by field
    # name: no module indexes or unpacks it, and its count has one definition
    counts = sorted(f"{path.name}: {name}" for path in sorted(SOURCE.glob("*.py"))
                    for name in _functions(path) if name == "certified_singular_count")
    assert counts == ["elimination.py: certified_singular_count"]
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = _tree(path)
        records = {target.id for node in ast.walk(tree)
                   if isinstance(node, ast.Assign) and _analysis_call(node.value)
                   for target in node.targets if isinstance(target, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Subscript) and (
                    _analysis_call(node.value)
                    or isinstance(node.value, ast.Attribute) and node.value.attr == "_singular_locus"
                    or isinstance(node.value, ast.Name) and node.value.id in records):
                found.append(f"{path.name}:{node.lineno}")
            if (isinstance(node, ast.Assign) and _analysis_call(node.value)
                    and any(isinstance(t, (ast.Tuple, ast.List)) for t in node.targets)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found


def _compared_attributes(path: Path) -> set:
    """Every attribute name that appears as an operand of a comparison."""
    return {operand.attr
            for node in ast.walk(_tree(path))
            if isinstance(node, ast.Compare)
            for operand in [node.left, *node.comparators]
            if isinstance(operand, ast.Attribute)}


def test_front_ends_dispatch_through_tables():
    # each CLI leaf carries its handler and each case kind has one runner in
    # corpus.RUNNERS, so neither front end restates the operations in a chain
    from dualis import corpus

    assert not _compared_attributes(SOURCE / "cli.py") & {"command", "subcommand"}
    assert "kind" not in _compared_attributes(SOURCE / "corpus.py")
    assert corpus.CASE_KINDS == tuple(corpus.RUNNERS)
    assert not {"_execute", "_dispatch", "_both_forms"} & (
        set(_functions(SOURCE / "cli.py")) | set(_functions(SOURCE / "corpus.py")))


def test_frame_search_stays_on_integer_lists():
    # each form enters the frame search once, as integer terms, and every
    # base and shear moves those terms, a polar taken from the moved first
    # form and the moved point; the frame holds the pair as integer
    # y-columns: its eliminant and every s_{k,j} are integer Sylvester
    # minors at cached points, its line resultants a closed form, so the
    # generic MultiPoly kernel, and the Fraction arithmetic in it, stays out
    # of the frame search
    tree = _tree(SOURCE / "elimination.py")
    kernel = {"resultant", "subresultant_coefficient", "determinant", "substitute",
              "UniPolyView", "apply_matrix"}
    integer = kernel | {"Fraction", "MultiPoly"}
    rules = {"_Frame": kernel, "singular_locus": kernel, "_accepted_frame": kernel,
             "_pair_frame_count": integer, "_chart_columns": integer,
             "_infinity_restriction": integer, "_base_usable": integer,
             "polar": integer, "_preimage": integer, "_second_moved": integer}
    scopes = {node.name: node for node in ast.walk(tree)
              if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in rules}
    assert len(scopes) == len(rules)
    found = sorted(f"{name}: {n.id if isinstance(n, ast.Name) else n.attr}"
                   for name, scope in scopes.items() for n in ast.walk(scope)
                   if isinstance(n, ast.Name) and n.id in rules[name]
                   or isinstance(n, ast.Attribute) and n.attr in rules[name])
    assert not found
    # the integer terms are taken once per form, before the loop over bases
    taken = [n for n in ast.walk(scopes["_accepted_frame"])
             if isinstance(n, ast.Name) and n.id == "_integer_terms"]
    looped = [n for loop in ast.walk(scopes["_accepted_frame"]) if isinstance(loop, ast.For)
              for n in ast.walk(loop) if isinstance(n, ast.Name) and n.id == "_integer_terms"]
    assert len(taken) == 2 and not looped


def test_one_frame_schedule_loop():
    # the frame schedule is walked by one loop, in elimination._accepted_frame
    # alone: a hint is the head of that schedule, not a loop of its own, its
    # only inner loop walks the shears of a base, and the integer terms are
    # taken once per form before it
    fn = _functions(SOURCE / "elimination.py")["_accepted_frame"]
    loops = [node for node in fn.body if isinstance(node, (ast.For, ast.While))]
    walks = [node for node in ast.walk(fn) if isinstance(node, (ast.For, ast.While))]
    assert len(loops) == 1 and len(walks) == 2 and walks[1] in list(ast.walk(loops[0]))
    taken = [n.lineno for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id == "_integer_terms"]
    assert len(taken) == 2 and max(taken) < loops[0].lineno
    for name in ("_BASES", "_base_usable", "_pair_frame_count"):
        assert _readers(name) == ["elimination.py: _accepted_frame"], name


#: the modules of the package, whose attributes are globals read across modules
MODULES = {path.stem for path in SOURCE.glob("*.py")}


def _reads(node, name: str) -> bool:
    """Does the node read the global name, bare or as an attribute of a
    module of the package (``elimination._moved``)?"""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id in MODULES)


def _readers(name: str) -> list:
    """Every function, as module: name, whose body reads the global name."""
    return sorted(f"{path.name}: {fn}" for path in sorted(SOURCE.glob("*.py"))
                  for fn, node in _functions(path).items()
                  if any(_reads(n, name) for n in ast.walk(node)))


def test_one_line_restriction_and_one_coordinate_change():
    # a form is evaluated along a line in exact._restriction alone, which the
    # pencil and line_transversality share; a singular point reaches its
    # chart origin through elimination._moved on F's integer terms, so
    # curvelab substitutes nothing; values are interpolated on a frame's
    # sweep and the dual's triangle alone, a line reads its restriction off
    # one packed value, and no grid over several variables is left
    assert _readers("_restriction") == ["curvelab.py: line_transversality",
                                        "exact.py: _on_pencil"]
    assert _readers("_interpolate") == ["dualgeom.py: _dual_in_chart",
                                        "elimination.py: coefficient"]
    assert "curvelab.py: classify_singularity" in _readers("_moved")
    assert "substitute" not in _referenced_names(SOURCE / "curvelab.py")
    defined = {name for path in sorted(SOURCE.glob("*.py")) for name in _functions(path)}
    assert not defined & {"binary_distinct_roots", "_lowest_parts", "_exps", "gradient",
                          "_minor_grid"}


def test_one_expansion_and_one_integer_coordinate_change():
    # the dual's chart runs through the one expansion exact._expand, on
    # integer terms, read by _dual_in_chart alone; bases, shears,
    # classify_singularity and apply_matrix move integer terms through
    # elimination._moved, one packed value, and the frame search moves the
    # first form in _accepted_frame and the second member of a pair in
    # _second_moved alone, for a base, a shear and a hint; a polar is never
    # moved, but taken in each frame from the moved first form
    assert _readers("_expand") == ["dualgeom.py: _dual_in_chart"]
    assert _readers("_add_product") == ["exact.py: __mul__", "exact.py: _expand"]
    assert _readers("_moved") == ["curvelab.py: classify_singularity",
                                  "elimination.py: _accepted_frame",
                                  "elimination.py: _second_moved",
                                  "elimination.py: apply_matrix"]
    assert _readers("polar") == ["elimination.py: _accepted_frame",
                                 "elimination.py: _second_moved"]
    assert _readers("_second_moved") == ["elimination.py: _accepted_frame"]
    assert "comb" not in _referenced_names(SOURCE / "elimination.py")
    defined = {name for path in sorted(SOURCE.glob("*.py")) for name in _functions(path)}
    assert not defined & {"_dehomogenised", "restrict_variables", "_base_frames",
                          "_infinity_line", "_carried", "_second_form", "_sheared"}


def _index_products(path: Path) -> list:
    """Every function of a module with a comprehension over enumerate(...)
    whose element multiplies by the index: the form of a derivative."""
    found = []
    for fn, node in _functions(path).items():
        for comp in ast.walk(node):
            if not isinstance(comp, (ast.ListComp, ast.GeneratorExp)):
                continue
            for gen in comp.generators:
                if (isinstance(gen.iter, ast.Call)
                        and getattr(gen.iter.func, "id", None) == "enumerate"
                        and isinstance(gen.target, ast.Tuple)
                        and isinstance(gen.target.elts[0], ast.Name)):
                    index = gen.target.elts[0].id
                    if any(isinstance(b, ast.BinOp) and isinstance(b.op, ast.Mult)
                           and index in {getattr(b.left, "id", None), getattr(b.right, "id", None)}
                           for b in ast.walk(comp.elt)):
                        found.append(f"{path.name}: {fn}")
    return sorted(set(found))


def test_one_univariate_toolkit():
    # each operation of the integer kernel is written once, in exact: the
    # derivative of a list and of a list of y-columns, the distinct-roots
    # test and the primality test (the readers of the interpolation and of
    # the term product are pinned above); no Sylvester matrix is laid out,
    # and no determinant or its degree bound is taken outside the chain
    defined = {name for path in sorted(SOURCE.glob("*.py")) for name in _functions(path)}
    assert not defined & {"_sylvester_minor", "_newton_numerators", "_minor_matrix",
                          "sylvester_matrix", "_int_bareiss_determinant", "_matching_bound"}
    derivatives = [name for path in sorted(SOURCE.glob("*.py"))
                   for name in _index_products(path)]
    assert derivatives == ["exact.py: _derivative", "exact.py: _y_derivative"]
    assert _readers("_distinct_roots") == ["curvelab.py: line_transversality",
                                           "exact.py: transversal_line"]
    assert _readers("_y_derivative") == ["elimination.py: is_power",
                                         "elimination.py: singular_locus"]
    assert _readers("_derivative") == ["elimination.py: _root_candidates",
                                       "elimination.py: _sqfree_part",
                                       "elimination.py: singular_locus",
                                       "exact.py: _distinct_roots",
                                       "exact.py: _uni_discriminant",
                                       "exact.py: squarefree_part"]
    elimination = _referenced_names(SOURCE / "elimination.py")
    assert "isqrt" not in elimination and "_is_prime" in elimination
    primes = sorted(f"{path.name}: {name}" for path in sorted(SOURCE.glob("*.py"))
                    for name in _functions(path) if "prime" in name.replace("coprime", ""))
    assert primes == ["exact.py: _gcd_primes", "exact.py: _is_prime"]


def test_one_subresultant_chain():
    # exact._subresultant_chain is the one chain, on integer lists, and every
    # eliminant is read from it: at each point of a frame, as the
    # discriminant of each list on the dual's triangle and of the public
    # discriminant, and as the public resultant of two lists in one
    # variable; no count and no dual equation calls the public eliminants,
    # and no multivariate layer (grids, Sylvester matrices, Bareiss, exact
    # division of MultiPolys) is left
    defined = {name for path in sorted(SOURCE.glob("*.py")) for name in _functions(path)}
    assert not defined & {"determinant", "_discriminant_matrix", "_minor_grid", "_minor_matrix",
                          "sylvester_matrix", "subresultant_coefficient",
                          "_int_bareiss_determinant", "_matching_bound", "try_exact_div",
                          "exact_div", "divides", "__floordiv__"}
    chains = sorted(f"{path.name}: {name}" for path in sorted(SOURCE.glob("*.py"))
                    for name in _functions(path) if "subresultant" in name or "chain" in name)
    assert chains == ["exact.py: _subresultant_chain"]
    assert _readers("_subresultant_chain") == ["elimination.py: coefficient",
                                               "exact.py: _subresultant_chain",
                                               "exact.py: _uni_discriminant",
                                               "exact.py: resultant"]
    assert _readers("_uni_discriminant") == ["dualgeom.py: _dual_in_chart",
                                             "exact.py: _uni_discriminant",
                                             "exact.py: discriminant"]
    for name in ("_differences", "_from_differences"):
        assert _readers(name) == ["dualgeom.py: _dual_in_chart", "exact.py: _interpolate"]
    for path in (SOURCE / "dualgeom.py", SOURCE / "elimination.py"):
        assert not {"discriminant", "resultant", "determinant", "_int_bareiss_determinant",
                    "_minor_matrix", "_discriminant_matrix"} & _referenced_names(path), path.name


def test_one_digit_reader():
    # a small frame reads every s_{k,j} off one chain at x = 2^K, and a
    # small chart its discriminant off one value at u = 2^(K(D+1)),
    # v = 2^K, through the one signed digit reader, exact._digits, beside
    # _interpolate, and the packed bound that picks them over the sweep and
    # the triangle is read there alone; a coordinate change reads a moved
    # form off one value at M (2^(K(d+1)), 2^K, 1) and a line its restriction
    # off one value at s = 2^K, with no bound, as neither has a second
    # route; the gcd reads its packed candidate through the same reader, and
    # its own bound on K is read by the gcd alone
    readers = sorted(f"{path.name}: {name}" for path in sorted(SOURCE.glob("*.py"))
                     for name in _functions(path) if "digit" in name)
    assert readers == ["exact.py: _digits"]
    assert _readers("_digits") == ["dualgeom.py: _dual_in_chart", "elimination.py: _moved",
                                   "elimination.py: coefficient", "exact.py: _restriction",
                                   "exact.py: _uni_gcd"]
    assert _readers("_PACKED_BITS") == ["dualgeom.py: _dual_in_chart", "elimination.py: __init__"]
    assert _readers("_GCD_DIGIT_BITS") == ["exact.py: _uni_gcd"]


def _int_constants(path: Path) -> dict:
    """Every name a module binds to an int literal at its top level."""
    return {target.id: node.value.value
            for node in _tree(path).body
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
            and type(node.value.value) is int
            for target in node.targets if isinstance(target, ast.Name)}


def _mentions_degree(node) -> bool:
    """Does an expression read a degree: d, a name or attribute with
    "degree" in it, or a dual degree d_dual?"""
    return any(isinstance(n, ast.Name) and (n.id in {"d", "d_dual"} or "degree" in n.id)
               or isinstance(n, ast.Attribute) and (n.attr == "d_dual" or "degree" in n.attr)
               for n in ast.walk(node))


def test_one_degree_budget():
    # every cap on the degree of a curve or of its dual is in one table in
    # exact, named for the work it bounds; charclass's caps on a package's
    # ambient dimension and degree bound another domain
    table = _int_constants(SOURCE / "exact.py")
    assert {name: value for name, value in table.items() if name.endswith(("_CAP", "_LIMIT"))} == {
        "INPUT_DEGREE_CAP": 6, "INPUT_DEGREE_HARD_CAP": 8, "SYLVESTER_LIMIT": 64,
        "DUAL_DEGREE_CAP": 8, "BIDUAL_DEGREE_CAP": 3}
    others = sorted(f"{path.name}: {name}" for path in sorted(SOURCE.glob("*.py"))
                    if path.name != "exact.py" for name in _int_constants(path))
    assert others == ["charclass.py: MAX_AMBIENT_DIM", "charclass.py: MAX_DEGREE"]
    # the dual-degree checks read the table, not a literal
    found = []
    for name in ("dualgeom.py", "corpus.py"):
        tree = _tree(SOURCE / name)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(_mentions_degree(o) for o in operands) and any(
                    isinstance(o, ast.Constant) and type(o.value) is int and o.value > 2
                    for o in operands):
                found.append(f"{name}:{node.lineno}")
    assert not found
    assert _readers("_dual_in_chart") == ["dualgeom.py: dual_equation"]


def _horner_loops(path: Path) -> list:
    """Every function of a module with a loop over reversed(...) that
    assigns to a name its own product: the form of Horner's rule."""
    found = []
    for fn, node in _functions(path).items():
        for loop in ast.walk(node):
            if not (isinstance(loop, ast.For) and isinstance(loop.iter, ast.Call)
                    and getattr(loop.iter.func, "id", None) == "reversed"):
                continue
            for assign in ast.walk(loop):
                if not isinstance(assign, ast.Assign):
                    continue
                targets = {n.id for t in assign.targets for n in ast.walk(t)
                           if isinstance(n, ast.Name)}
                if any(isinstance(b, ast.BinOp) and isinstance(b.op, ast.Mult)
                       and getattr(b.left, "id", None) in targets
                       for b in ast.walk(assign.value)):
                    found.append(f"{path.name}: {fn}")
    return sorted(set(found))


def test_one_list_evaluation():
    # an integer list is evaluated by exact._at alone, at an int, at a
    # Fraction or before a reduction modulo m: elimination builds its roots
    # and points on it, and dualgeom reads it from exact, not through
    # elimination
    horners = [name for path in sorted(SOURCE.glob("*.py")) for name in _horner_loops(path)]
    assert horners == ["exact.py: _at"]
    defined = {name for path in sorted(SOURCE.glob("*.py")) for name in _functions(path)}
    assert not defined & {"_eval_mod", "_is_root", "load_report"}
    assert _readers("_at") == ["dualgeom.py: _dual_in_chart", "elimination.py: _accepted_frame",
                               "elimination.py: _root_candidates",
                               "elimination.py: coefficient", "elimination.py: point",
                               "elimination.py: rational_roots", "exact.py: _uni_gcd"]
    tree = _tree(SOURCE / "dualgeom.py")
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "_at"]


def _users(name: str) -> list:
    """Every function, as module: name, that reads name as a global or as an
    attribute (json.dumps, corpus.json_text)."""
    return sorted(f"{path.name}: {fn}" for path in sorted(SOURCE.glob("*.py"))
                  for fn, node in _functions(path).items()
                  if any(isinstance(n, ast.Attribute) and n.attr == name
                         or isinstance(n, ast.Name) and n.id == name for n in ast.walk(node)))


def test_one_json_reader_and_one_json_writer():
    # a JSON document is parsed by corpus.load_json alone and written by
    # corpus.json_text alone, which refuses an integer too long to print;
    # the CLI, the report and the package files go through them
    for name, owner in (("loads", "corpus.py: load_json"), ("dumps", "corpus.py: json_text")):
        uses = [f"{path.name}:{node.lineno}" for path in sorted(SOURCE.glob("*.py"))
                for node in ast.walk(_tree(path))
                if isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.Name) and node.id == name]
        assert len(uses) == 1 and _users(name) == [owner], name
    importers = [path.name for path in sorted(SOURCE.glob("*.py"))
                 if "json" in _referenced_names(path)]
    assert importers == ["corpus.py"]
    assert _users("json_text") == ["cli.py: _chi_package", "cli.py: run_command",
                                   "corpus.py: save_package", "corpus.py: to_json"]


def test_each_fact_certified_once():
    # a witness enters the frame search as an integer point, so the search
    # has one entry, elimination._accepted_frame; a line's dual side is
    # decided by the transversal count of the pair, so corpus neither builds
    # a line's dual point nor counts or refuses on its own
    defined = {name for path in sorted(SOURCE.glob("*.py")) for name in _functions(path)}
    assert not defined & {"_witness_frame", "_line_dual_point"}
    assert not {"elimination", "NotTransversal"} & _referenced_names(SOURCE / "corpus.py")


def test_singular_analysis_stays_on_integers():
    # a line resultant is only taken modulo the class or part it tests,
    # through the one reduction of lists modulo a list (exact._reduced);
    # singular points are classified from F's moved integer terms, and the
    # dual's factors are stripped from the chart discriminant's integer
    # terms, so neither reads the Fraction MultiPoly kernel
    assert _readers("_reduced") == ["elimination.py: _line_resultant"]
    calls = [node for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(_tree(path))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_line_resultant"]
    assert len(calls) == 2
    # P, a, b and the modulus, or P, the line as one starred pair, and the modulus
    assert all(len(call.args) == 4
               or len(call.args) == 3 and isinstance(call.args[1], ast.Starred)
               for call in calls)
    defined = {name for path in sorted(SOURCE.glob("*.py")) for name in _functions(path)}
    assert "_strip_all" not in defined
    assert "try_exact_div" not in _referenced_names(SOURCE / "dualgeom.py")
    assert "apply_matrix" not in _referenced_names(SOURCE / "curvelab.py")


def _clocked_tests(path: Path) -> list:
    """The tests of a module that assert a time.perf_counter bound, in their
    own body or through a helper function of the module, as (name, node)."""
    functions = [node for node in ast.walk(_tree(path))
                 if isinstance(node, ast.FunctionDef)]

    def reads(node, names):
        return any(isinstance(n, ast.Attribute) and n.attr in names
                   or isinstance(n, ast.Name) and n.id in names for n in ast.walk(node))
    helpers = {fn.name for fn in functions
               if not fn.name.startswith("test") and reads(fn, {"perf_counter"})}
    return [fn for fn in functions
            if fn.name.startswith("test") and reads(fn, helpers | {"perf_counter"})]


def test_every_clock_bound_test_is_marked_timed(pytestconfig):
    # each test outside the acceptance gate that bounds its wall time carries
    # the registered `timed` marker, and no other test does, so a traced or
    # profiled run can leave exactly those out with -m "not timed"
    assert any(m.startswith("timed:") for m in pytestconfig.getini("markers"))
    tests = Path(__file__).resolve().parent
    clocked, marked = set(), set()
    for path in sorted(tests.glob("test_*.py")):
        if path.name == "test_acceptance.py":
            continue
        clocked |= {f"{path.name}:{fn.lineno}" for fn in _clocked_tests(path)}
        marked |= {f"{path.name}:{fn.lineno}"
                   for fn in ast.walk(_tree(path))
                   if isinstance(fn, ast.FunctionDef)
                   and any(ast.unparse(d) == "pytest.mark.timed" for d in fn.decorator_list)}
    assert len(clocked) >= 20 and clocked == marked


#: the ring arithmetic MultiPoly no longer has: it is a container, and every
#: computation runs on its integer terms
DELETED_ARITHMETIC = {"var", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__pow__",
                      "derivative", "evaluate", "substitute"}


def test_multipoly_is_a_container():
    # MultiPoly defines none of the deleted arithmetic, as a method or as an
    # alias, and no module calls it: a MultiPoly is parsed, printed,
    # multiplied, compared and made primitive
    cls = next(node for node in ast.walk(_tree(SOURCE / "exact.py"))
               if isinstance(node, ast.ClassDef) and node.name == "MultiPoly")
    members = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)} | {
        target.id for node in cls.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)}
    assert {"__mul__", "__rmul__", "__eq__", "primitive", "text"} <= members
    assert not members & DELETED_ARITHMETIC
    calls = sorted(f"{path.name}:{node.lineno}" for path in sorted(SOURCE.glob("*.py"))
                   for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Attribute) and (
                       node.attr in DELETED_ARITHMETIC - {"var"}
                       or node.attr == "var" and getattr(node.value, "id", None) == "MultiPoly"))
    assert not calls


#: MultiPoly methods that no served path runs and that stay for the tests
TEST_SIDE_METHODS = {
    # comparing, hashing and printing results in assertions
    "__hash__", "__repr__",
    # the truth value: without it a zero polynomial would silently be true
    "__bool__",
    # the immutability guards of MultiPoly and UniPolyView, which run on misuse
    "__setattr__",
}

#: the other functions of the package that no served path runs and that stay
UNSERVED = {
    # the immutability guard and the text of a curve
    "curvelab": {"PlaneCurve.__setattr__", "PlaneCurve.__repr__",
                 # public API, whose reader is the tests
                 "PlaneCurve.contains"},
    # the refusal of a malformed manifest field, which no shipped case has
    "errors": {"SchemaError.__init__"},
    # the console entry point, and the parser it and run_command share,
    # built with its helpers when the module is imported
    "cli": {"main", "_build_parser", "_build_parser.<locals>.group",
            "_build_parser.<locals>.leaf"},
}


def _traced_names() -> dict:
    """The functions of each module that perfbench/tracing.py wraps."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  REPO / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def _qualified_functions(path: Path) -> dict:
    """Every function a module defines, as {(first line of its code, name):
    qualified name (``Class.method``, ``outer.<locals>.inner``)}; the code
    of a decorated function starts at its first decorator."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[first, child.name] = prefix + child.name
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)
    visit(_tree(path), "")
    return found


def test_every_function_runs_on_a_served_path():
    # a function of src/dualis that runs on none of the served paths (every
    # command of test_cli_outputs in both formats, a run of the shipped
    # corpus that also writes its report, the four demos and the doctests
    # of exact), is not wrapped by the benchmark's tracer and is on neither
    # list above is dead code
    import test_cli_outputs
    from dualis import exact
    from dualis.cli import run_command

    paths = {str(path.resolve()): path for path in SOURCE.glob("*.py")}
    ran = set()

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename in paths:
            ran.add((paths[code.co_filename].stem, code.co_firstlineno, code.co_name))

    sys.setprofile(record)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for command in test_cli_outputs.COMMANDS:
                for fmt in test_cli_outputs.FORMATS:
                    run_command(test_cli_outputs._argv(command, fmt, Path(tmp)))
            run_command(["corpus", "run", str(REPO / "corpus"), "--no-timestamps",
                         "--out", str(Path(tmp) / "report.json")])
            for demo in sorted((REPO / "demos").glob("*.py")):
                runpy.run_path(str(demo), run_name="__main__")
            doctest.testmod(exact)
    finally:
        sys.setprofile(None)
    traced = _traced_names()
    never = []
    for path in sorted(SOURCE.glob("*.py")):
        module = path.stem
        allowed = set(traced.get(module, ())) | UNSERVED.get(module, set())
        if module == "exact":
            allowed |= {f"{cls}.{name}" for cls in ("MultiPoly", "UniPolyView")
                        for name in TEST_SIDE_METHODS}
        never += [f"{path.name}: {name}"
                  for (line, short), name in sorted(_qualified_functions(path).items())
                  if (module, line, short) not in ran and name not in allowed]
    assert not never
