"""Every command checks a cell's domain and capacity before it lists
anything: ``dim``, ``witness`` and ``relations`` on both spaces refuse
with the guard's own error while every basis and forest generator is
patched to fail.  The library's own domain checks refuse an argument
outside their domain with their message."""

import re

import pytest

from cli_runner import invoke
from strutforge.bases import strut_union_count, tree_components
from strutforge.counting import r, ratio, ratio_limit
from strutforge.diagrams import MARKED_COLOR, Diagram, Mode, check_color, strut, y_tree
from strutforge.errors import CapacityError, DomainError, StructuralError
from strutforge.pipeline import compute_dimension, compute_witness

H = Mode.HOMOTOPY


def _never(*_args, **_kwargs):
    raise AssertionError("a basis or forest was listed before the guards")


@pytest.fixture
def no_listing(monkeypatch):
    for target in ("pipeline.build_basis", "pipeline.enumerate_y_basis",
                   "bases.forest_encodings", "relations.forest_encodings"):
        monkeypatch.setattr(f"strutforge.{target}", _never)


FULL_CASES = [
    # (k, degree, max_basis, max_rows, error, message)
    (5, 4, 1484, 1, CapacityError, "1485 basis elements exceed the cap 1484"),
    (5, 4, 1485, 9324, CapacityError, "9325 link configurations exceed the cap 9324"),
    (5, 0, 1, 1, DomainError, "degree must be >= 1"),
]

WITNESS_CASES = [
    # (arguments, message)
    (["--space", "full", "--k", "5", "--degree", "4", "--max-basis", "1484"],
     "1485 basis elements exceed the cap 1484"),
    (["--space", "full", "--k", "5", "--degree", "4", "--max-rows", "9324"],
     "9325 link configurations exceed the cap 9324"),
    (["--space", "y", "--k", "6", "--n", "2", "--max-basis", "2399"],
     "2400 basis elements exceed the cap 2399"),
    (["--space", "y", "--k", "6", "--n", "2", "--max-rows", "20399"],
     "20400 configurations exceed the cap 20399"),
]


@pytest.mark.parametrize("k,degree,max_basis,max_rows,error,message", FULL_CASES)
def test_full_dim_guards_come_before_any_listing(no_listing, tmp_path, k, degree,
                                                 max_basis, max_rows, error, message):
    with pytest.raises(error, match=message):
        compute_dimension(H, "full", k, degree,
                          max_elements=max_basis, max_rows=max_rows)
    result = invoke([
        "dim", "--space", "full", "--k", str(k), "--degree", str(degree),
        "--max-basis", str(max_basis), "--max-rows", str(max_rows),
        "--cache-dir", str(tmp_path)])
    assert result.exit_code == 1 and message in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args,message", WITNESS_CASES)
def test_witness_guards_come_before_any_listing(no_listing, tmp_path, args, message):
    result = invoke(["witness", *args, "--cache-dir", str(tmp_path),
                     "--out", str(tmp_path / "w.json")])
    assert result.exit_code == 1 and message in result.output
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("space,param", [("full", 0), ("y", -1)])
def test_witness_domain_error_comes_before_any_listing(no_listing, space, param):
    with pytest.raises(DomainError):
        compute_witness(H, space, 5, param)


@pytest.mark.parametrize("args,message", [
    (["--space", "y", "--k", "8", "--n", "3"],
     "1762040 configurations exceed the cap 100000"),
    (["--space", "full", "--k", "7", "--degree", "5"],
     "1341522 link configurations exceed the cap 100000"),
    (["--space", "y", "--k", "2", "--n", "1"],
     "the homotopy Y-subspace needs k >= 3"),
])
def test_relations_guards_come_before_any_listing(no_listing, args, message):
    result = invoke(["relations", *args])
    assert result.exit_code == 1 and message in result.output


def test_non_prime_is_refused_before_any_listing(no_listing):
    # The first prime certifies every block of this cell, so the second
    # is never used by the rank and must be checked up front.
    with pytest.raises(DomainError, match="2147483646 is not a prime"):
        compute_dimension(H, "full", 5, 4, primes=(2147483647, 2147483646))
    with pytest.raises(DomainError, match="2147483646 is not a prime"):
        compute_witness(H, "full", 5, 4, prime=2147483646)


@pytest.mark.parametrize("check,error,message", [
    (lambda: tree_components(3, 0, H), DomainError, "tree degree must be >= 1, got 0"),
    (lambda: strut_union_count(3, -1, H), DomainError, "degree must be >= 0, got -1"),
    (lambda: r(-1, 3), DomainError, "r(n, k) needs n >= 0, got n=-1"),
    (lambda: ratio(0, 2), DomainError, "ratio(n, k) needs k >= 3, got k=2"),
    (lambda: ratio(-1, 3), DomainError, "ratio(n, k) needs n >= 0, got n=-1"),
    (lambda: ratio_limit(2), DomainError, "ratio_limit(k) needs k >= 3, got k=2"),
    (lambda: check_color(0), DomainError,
     f"color must be an integer in 1..{MARKED_COLOR}, got 0"),
    (lambda: y_tree(1, 2, 3).strut_ends(), DomainError, "not a strut"),
    (lambda: strut(1, 2).with_flip(0), DomainError, "vertex 0 is not trivalent"),
    (lambda: Diagram((strut(1, 2),), H, 3, is_zero=True), StructuralError,
     "the zero diagram carries no components"),
    (lambda: Diagram((strut(1, 4),), H, 3), DomainError, "leaf color 4 exceeds k=3"),
])
def test_an_argument_outside_the_domain_is_refused(check, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        check()
