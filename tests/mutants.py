"""Mutation probe: each guard of the package and the test that must catch it.

A mutant is a one-place edit of a `src/gaussorbits` file that disables a
check or forces a verdict, listed with the test expected to fail under it.
For each mutant the probe applies the edit to a temporary copy of `src/`
and `tests/`, runs the killing test there with pytest, and reports the
mutants whose test still passes.  It first runs every killing test on the
unedited copy, where each must pass.  It writes nothing in the repository.

    python tests/mutants.py            # every mutant
    python tests/mutants.py 3 11       # the mutants with these indices
    python tests/mutants.py --list     # index, file and killing test

The exit status is 1 when a mutant survives or a killing test fails on
the unedited copy.  The file name has no test_ prefix, so the test suite
does not collect it; `test_hygiene.py` checks that each old text below
still occurs exactly once in its file, and that each killing test exists.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).parents[1]

# (file under src/gaussorbits, old text, new text, killing test)
MUTANTS = (
    # rootsys._check_build
    ("rootsys.py",
     "if got != count(rank):",
     "if False:",
     "tests/test_rootsys.py::TestBuild::test_class_table_disagreement_is_invariant_violation"),
    ("rootsys.py",
     "if len(system._class_of) != len(system.positive_roots):",
     "if False:",
     "tests/test_rootsys.py::TestCheckBuild::test_duplicate_positive_roots"),
    ("rootsys.py",
     "if system.positive_roots[-1] != system.highest_root:",
     "if False:",
     "tests/test_rootsys.py::TestIntegerOrder::test_wrong_highest_root_is_invariant_violation"),
    ("rootsys.py",
     "if len(closure) > limit or pos != listed:",
     "if False:",
     "tests/test_rootsys.py::TestCheckBuild::test_reflection_closure_disagreement"),
    # rootsys._block measures each root's length; _make_system labels only
    # the lengths a class has, so _check_build sees a stranger's
    ("rootsys.py",
     "tuple(sum(x * x for x in filter(None, v._num)) for v in row)",
     "tuple(sum(x * x for x in filter(None, row[0]._num)) for v in row)",
     "tests/test_rootsys.py::TestCheckBuild::test_a_block_with_a_vector_outside_the_system"),
    ("rootsys.py",
     "length_labels(index.keys() & set(norms))",
     "length_labels(norms)",
     "tests/test_rootsys.py::TestCheckBuild::test_a_block_with_a_vector_outside_the_system"),
    # _make_system's sort of a constructor's roots
    ("rootsys.py",
     "order = sorted(range(len(keys)), key=keys.__getitem__)",
     "order = range(len(keys))",
     "tests/test_rootsys.py::TestIntegerOrder::test_matches_fraction_reference"),
    # RootSystem is frozen and hashes by identity
    ("rootsys.py",
     "@dataclass(frozen=True, eq=False, repr=False)",
     "@dataclass(frozen=True, eq=True, repr=False)",
     "tests/test_rootsys.py::TestValueTypes::test_a_system_hashes_by_identity"),
    ("rootsys.py",
     "@dataclass(frozen=True, eq=False, repr=False)",
     "@dataclass(frozen=False, eq=False, repr=False)",
     "tests/test_rootsys.py::TestValueTypes::"
     "test_a_system_and_its_type_refuse_attribute_writes"),
    # rootsys.reflection_closure, reached through _check_build
    ("rootsys.py",
     "                if r:\n",
     "                if False:\n",
     "tests/test_rootsys.py::TestCheckBuild::test_a_non_integral_cartan_number"),
    ("rootsys.py",
     "while frontier and len(roots) <= limit:",
     "while frontier:",
     "tests/test_rootsys.py::TestCheckBuild::test_reflection_closure_that_does_not_close"),
    # rootsys._heights, reached through _check_build
    ("rootsys.py",
     "            else:\n                raise InvariantViolation(\n"
     "                    f\"{label}: positive root {beta!r} is no simple root plus a lower one\"\n"
     "                )",
     "            else:\n                continue",
     "tests/test_rootsys.py::TestCheckBuild::test_simple_roots_that_are_no_base"),
    # pairdb._finish_record: the dim_m identity, proved once at load
    ("pairdb.py",
     "if counted + rank != dim_m:",
     "if False:",
     "tests/test_cli.py::TestUserSuppliedDatabase::test_dim_m_wrong_above_p_min"),
    # pairdb._finish_record: each multiplicity affine, integral and >= 1,
    # and a group manifold's all 2, proved once at load
    ("expr.py",
     "if self.degree > 1:",
     "if False:",
     "tests/test_cli.py::TestUserSuppliedDatabase::test_multiplicity_of_degree_two_is_refused"),
    ("expr.py",
     "            self(p0 + 1, n0)\n",
     "            pass\n",
     "tests/test_cli.py::TestUserSuppliedDatabase::test_multiplicity_not_integral_above_p_min"),
    ("pairdb.py",
     '        _on_line(lines[tag], m.check_positive, rec.get("params p"), rec.get("params n"))\n',
     "",
     "tests/test_cli.py::TestUserSuppliedDatabase::test_multiplicity_below_one_above_p_min"),
    # pairdb.FLAGS: a set flag its record's type and multiplicities contradict
    ("pairdb.py",
     "lambda family, m: all(_constant(x, 2) for x in m.values())",
     "lambda family, m: True",
     "tests/test_cli.py::TestUserSuppliedDatabase::test_instantiate_refuses_the_smallest_pair"),
    ("pairdb.py",
     "lambda family, m: all(_constant(x, 1) for x in m.values())",
     "lambda family, m: True",
     "tests/test_pairdb.py::TestFlags::test_a_contradicted_flag_is_refused_on_its_record_line"),
    ("pairdb.py",
     'lambda family, m: family in ("C", "BC") and _constant(m["2e_i"], 1)',
     "lambda family, m: True",
     "tests/test_pairdb.py::TestFlags::test_a_contradicted_flag_is_refused_on_its_record_line"),
    ("pairdb.py",
     'family == "F4" and _constant(m["long"], 1) and not _constant(m["short"], 1)),',
     "True),",
     "tests/test_pairdb.py::TestFlags::test_a_contradicted_flag_is_refused_on_its_record_line"),
    # pairdb.parse_database: a single-valued field given twice
    ("pairdb.py",
     "    if field in rec:\n",
     "    if False:\n",
     "tests/test_pairdb.py::TestFileFormat::test_a_single_valued_field_given_twice"),
    # pairdb.PairFamily.instantiations and the load-time name check
    ("pairdb.py",
     "itertools.product(p_axis, n_axis if p_axis else ())",
     "itertools.product(p_axis, n_axis)",
     "tests/test_pairdb.py::TestInstantiations::"
     "test_an_empty_p_axis_leaves_the_n_axis_unwalked"),
    ("pairdb.py",
     "    _on_line(line, fam.names, p_min, n_min)\n",
     "",
     "tests/test_pairdb.py::TestInstantiations::test_a_name_is_checked_at_load"),
    ("pairdb.py",
     "_on_line(line, part.check_affine, p_min, n_min)",
     "pass",
     "tests/test_cli.py::TestUserSuppliedDatabase::test_name_part_is_affine_and_integral"),
    ("pairdb.py",
     "        _on_line(line, part.check_positive, rec.get(\"params p\"), rec.get(\"params n\"))\n",
     "",
     "tests/test_cli.py::TestUserSuppliedDatabase::test_name_part_below_one_is_refused"),
    # pairdb._finish_record: the class counts hold from rank 2 up
    ("pairdb.py",
     "if (low := p_min if rank is P else rank) < 2:",
     "if False:",
     "tests/test_cli.py::TestUserSuppliedDatabase::test_rank_below_two_is_refused"),
    ("pairdb.py",
     "if _NESTED.search(name):",
     "if False:",
     "tests/test_cli.py::TestUserSuppliedDatabase::test_name_with_nested_parentheses"),
    # pairdb.render_name: a part in parentheses that is no expression
    ("pairdb.py",
     '_NAME_PART = re.compile(r"\\(([^()]*)\\)")',
     '_NAME_PART = re.compile(r"\\(([0-9pn+\\-*/ ]+)\\)")',
     "tests/test_cli.py::TestUserSuppliedDatabase::test_name_part_that_is_no_expression"),
    # rootsys._check_build's dominance check, the only one that sees a
    # reducible system
    ("rootsys.py",
     "if any(map(operator.lt, top, coeffs)):",
     "if False:",
     "tests/test_rootsys.py::TestCheckBuild::test_a_reducible_system"),
    # rootsys._check_build: each class's highest root is dominant, at every rank
    ("rootsys.py",
     "if sum(x * v._num[k] for k, x in support) < 0:",
     "if False:",
     "tests/test_rootsys.py::TestCheckBuild::test_a_highest_root_that_is_not_dominant"),
    # rootsys._make_system's ray table: a longer class keeps a shared ray
    ("rootsys.py",
     "for c in sorted(tops)}",
     "for c in sorted(tops, reverse=True)}",
     "tests/test_orbits.py::TestParallelRoot::test_the_ray_of_a_class_top_gives_its_longest_root"),
    # orbits._orbit_facts
    ("orbits.py",
     "        if dot < 0:\n            raise ValueError(",
     "        if False:\n            raise ValueError(",
     "tests/test_orbits.py::TestWallCounts::test_a_point_outside_the_chamber"),
    # orbits.weyl_fold's sort for the classical families.  Dropping the
    # test for a zero entry in D is no mutant: with one, the last sorted
    # entry is 0 and the parity flip changes nothing.
    ("orbits.py",
     'if family == "D" and sum(x < 0 for x in H._num) % 2:',
     "if False:",
     "tests/test_orbits.py::TestClassicalFold::test_hand_folds"),
    ("orbits.py",
     "num = sorted(map(abs, H._num), reverse=True)",
     "num = sorted(H._num, reverse=True)",
     "tests/test_orbits.py::TestClassicalFold::test_hand_folds"),
    ("orbits.py",
     "return rootsys._reduced(tuple(num), H._den)",
     "return rootsys._reduced(tuple(num), 1)",
     "tests/test_orbits.py::TestClassicalFold::test_hand_folds"),
    # orbits.OrbitReport and orbits.classify
    ("orbits.py",
     "if self.nullity != self.l - self.r or self.nullity < 0:",
     "if False:",
     "tests/test_orbits.py::TestOrbitReport::test_nullity_is_l_minus_r_and_not_negative"),
    ("orbits.py",
     "if self.degenerate != (self.nullity > 0):",
     "if False:",
     "tests/test_orbits.py::TestOrbitReport::test_degenerate_exactly_when_nullity_is_positive"),
    ("orbits.py",
     "if self.degenerate and self.rule not in DEGENERATE_RULES:",
     "if False:",
     "tests/test_orbits.py::TestOrbitReport::test_degenerate_only_by_the_rule"),
    ("orbits.py",
     "        if rootsys._dot_sign_num(v, normal):  # v's dimension is checked",
     "        if False:",
     "tests/test_cli.py::TestClassifyCommand::test_a_point_outside_the_root_span"),
    ("orbits.py",
     "if ab and not degenerate:",
     "if False:",
     "tests/test_orbits.py::TestClassify::test_ab_outside_the_rule_is_invariant_violation"),
    # orbits.principal_curvatures, and classify --xi checked at the given H
    ("orbits.py",
     "if v.dim != system.ambient_dim:",
     "if False:",
     "tests/test_orbits.py::TestPrincipalCurvatures::test_a_vector_of_another_dimension_is_named"),
    ("orbits.py",
     "if not is_orthogonal(xi, H):",
     "if False:",
     "tests/test_cli.py::TestClassifyCommand::test_xi_normal_to_the_folded_h_only_is_refused"),
    # orbits.sweep's cache, keyed by spec alone
    ("orbits.py",
     "            profile = profiles.get((system, spec))\n"
     "            if profile is None:\n"
     "                profile = profiles[system, spec] =",
     "            profile = profiles.get(spec)\n"
     "            if profile is None:\n"
     "                profile = profiles[spec] =",
     "tests/test_orbits.py::TestMemo::test_table1_instances_match_memo_free_classify"),
    # ferus.equality_scan: one count-row entry off, and the degenerate rule flipped
    ("rootsys.py",
     '"C": {"long": "2p-2 1", "short": "4p-7 2"}',
     '"C": {"long": "2p-2 1", "short": "4p-6 2"}',
     "tests/test_ferus.py::TestEqualityScan::test_matches_the_sweep_on_the_wide_grid"),
    ("ferus.py",
     "in orbits.DEGENERATE_RULES",
     "not in orbits.DEGENERATE_RULES",
     "tests/test_orbits.py::TestMemo::test_equality_scan_matches_memo_free_classify"),
    # ferus.FerusCertificate
    ("ferus.py",
     "if self.F != self.witness_k or self.minimality_checked_up_to != self.F - 1:",
     "if False:",
     "tests/test_ferus.py::TestFerus::test_inconsistent_certificate_is_refused"),
    # expr.compile_expr
    ("expr.py",
     "if isinstance(node.op, ast.Div) and right.variables:",
     "if False:",
     "tests/test_cli.py::TestUserSuppliedDatabase::test_dividing_by_an_expression_in_p"),
    ("expr.py",
     ".degree > MAX_DEGREE:",
     ".degree > 10**9:",
     "tests/test_cli.py::TestUserSuppliedDatabase::"
     "test_expression_of_high_degree_is_refused_at_once"),
    # report
    ("report.py",
     "if got != compile_expr(str(self.degeneracy)):",
     "if False:",
     "tests/test_report.py::TestTable1::test_degeneracy_validation"),
    # report.table1_rows: theta's class is the last, and its counts are exact
    ("report.py",
     "degeneracy = family.mult[-1][1]",
     "degeneracy = family.mult[0][1]",
     "tests/test_report.py::TestTable1::test_symbolic_rows_match_golden"),
    ("rootsys.py",
     '"D": {"long": "4p-7"}',
     '"D": {"long": "4p-6"}',
     "tests/test_rootsys.py::TestHighestRootCounts::test_counts_match_built_systems"),
    # cayley
    ("cayley.py",
     "            if pairing % den:",
     "            if False:",
     "tests/test_cayley.py::TestProjectionAxioms::test_not_crystallographic"),
    ("cayley.py",
     "if rootsys.reflect(y, x) not in preimages:",
     "if False:",
     "tests/test_cayley.py::TestProjectionAxioms::test_not_closed"),
    ("cayley.py",
     "got[perm[i]][perm[j]] == want[i][j]",
     "True",
     "tests/test_cayley.py::TestVerifyAppendix::test_a_type_is_told_by_its_cartan_matrix"),
    ("cayley.py",
     "if system.contains_positive(s) and s != delta:\n                return False",
     "if system.contains_positive(s) and s != delta:\n                pass",
     "tests/test_cayley.py::TestSumToDelta::test_adjacent_simple_roots_sum_below_delta"),
    ("cayley.py",
     "for g in datum.gammas):\n            return False",
     "for g in datum.gammas):\n            pass",
     "tests/test_cayley.py::TestStronglyOrthogonal::test_a_dropped_gamma_is_not_maximal"),
    ("cayley.py",
     "if pnorm > anorm or (pnorm == anorm) != (value == alpha):\n                return False",
     "if pnorm > anorm or (pnorm == anorm) != (value == alpha):\n                pass",
     "tests/test_cayley.py::TestProject::"
     "test_a_value_longer_than_its_preimage_does_not_contract"),
)


def _run(copy: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True,
    )


def main(argv) -> int:
    if argv == ["--list"]:
        for i, (name, _, _, test) in enumerate(MUTANTS):
            print(f"{i:2d}  {name:11s} {test}")
        return 0
    chosen = [int(a) for a in argv] or range(len(MUTANTS))
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", copy)
        tests = sorted({MUTANTS[i][3] for i in chosen})
        baseline = _run(copy, tests)
        if baseline.returncode:
            print("a killing test fails on the unedited copy:\n" + baseline.stdout[-2000:])
            return 1
        for i in chosen:
            name, old, new, test = MUTANTS[i]
            path = copy / "src" / "gaussorbits" / name
            text = path.read_text()
            path.write_text(text.replace(old, new, 1))
            try:
                killed = _run(copy, [test]).returncode != 0
            finally:
                path.write_text(text)
            failed |= not killed
            print(f"{i:2d}  {'killed' if killed else 'SURVIVED'}  {name}: {old.strip()[:60]!r}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
