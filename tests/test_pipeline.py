import gc
import json

import pytest

from strutforge import __version__
from strutforge.bases import (
    Basis,
    BasisSpec,
    enumerate_basis,
    enumerate_y_basis,
    leaf_orbits,
    strut_union_count,
)
from strutforge.diagrams import Mode, encoding_trivalent_count
from strutforge.errors import CacheError, DomainError
import strutforge.linalg as linalg
import strutforge.pipeline as pipeline
from strutforge.linalg import DEFAULT_PRIMES, SparseMatrix, rank_multiprime
from strutforge.pipeline import (
    CACHE_ENV_VAR,
    CSV_HEADER,
    ResultCache,
    ResultRecord,
    build_basis,
    build_relations,
    compute_dimension,
    compute_witness,
    resolve_cache_dir,
)
from strutforge.peel import coefficient_bound
from strutforge.relations import RelationRow, y_link_relations

H = Mode.HOMOTOPY
C = Mode.CONCORDANCE


def strip_volatile(record):
    return record.replace(elapsed_ms=0, timestamp="")


class TestComputeDimension:
    def test_y_space_record(self):
        rec = compute_dimension(H, "y", 5, 2)
        assert rec.num_diagrams == 550
        assert rec.quotient_dim == 0
        assert rec.num_diagrams - rec.rank == rec.quotient_dim
        assert rec.tool_version == __version__
        assert rec.num_relations_raw == 4400

    def test_full_space_record(self):
        rec = compute_dimension(H, "full", 3, 2)
        assert (rec.num_diagrams, rec.rank, rec.quotient_dim) == (7, 1, 6)

    def test_concordance_record(self):
        rec = compute_dimension(C, "full", 2, 2)
        assert rec.quotient_dim == 6

    @pytest.mark.parametrize("space,k,param", [("y", 5, 2), ("full", 4, 3)])
    def test_certified_by_one_prime(self, space, k, param):
        rec = compute_dimension(H, space, k, param)
        assert rec.certified
        assert rec.primes == (DEFAULT_PRIMES[0],)
        data = json.loads(rec.to_json())
        assert (data["certified"], data["primes"]) == (True, [DEFAULT_PRIMES[0]])

    def test_repeated_prime_rejected_before_basis(self, monkeypatch):
        def never(*_):
            raise AssertionError("basis built for a repeated prime")

        monkeypatch.setattr("strutforge.pipeline.build_basis", never)
        p = DEFAULT_PRIMES[0]
        for primes in ((p, p), (p,)):
            with pytest.raises(DomainError, match="two distinct primes"):
                compute_dimension(H, "full", 6, 5, primes)

    def test_uncertified_cell_ranks_one_more_prime(self, monkeypatch):
        real = linalg.rank_mod_p
        calls = []

        def counted(m, p):
            calls.append(p)
            return real(m, p)

        monkeypatch.setattr(linalg, "rank_mod_p", counted)
        # y (3, 0) is one block, Y(1,2,3) alone, in an orbit of size 1;
        # with its peels refused it is ranked from its rows
        monkeypatch.setattr(pipeline, "peel_y_block", lambda basis: None)
        monkeypatch.setattr(pipeline, "peel_rows", lambda rows, num_cols: [])
        certified = compute_dimension(H, "y", 3, 0)
        assert len(calls) == 1
        calls.clear()
        monkeypatch.setattr(linalg, "rank_mod_p", lambda m, p: counted(m, p) - 1)
        forced = compute_dimension(H, "y", 3, 0)
        assert len(calls) == 2
        assert not forced.certified
        assert forced.primes == DEFAULT_PRIMES
        assert forced.rank == certified.rank - 1

    def test_each_uncertified_block_ranks_one_more_prime(self, monkeypatch):
        real = linalg.rank_mod_p
        calls = []

        def counted(m, p):
            calls.append(p)
            return real(m, p)

        ranked = [orbit for leaves, orbit in leaf_orbits(4, "y", 1)
                  if len(enumerate_y_basis(4, 1, H, leaves=leaves))]
        assert ranked == [12, 4]
        monkeypatch.setattr(linalg, "rank_mod_p", counted)
        monkeypatch.setattr(pipeline, "peel_y_block", lambda basis: None)
        monkeypatch.setattr(pipeline, "peel_rows", lambda rows, num_cols: [])
        certified = compute_dimension(H, "y", 4, 1)
        assert len(calls) == len(ranked)
        calls.clear()
        monkeypatch.setattr(linalg, "rank_mod_p", lambda m, p: counted(m, p) - 1)
        forced = compute_dimension(H, "y", 4, 1)
        assert len(calls) == 2 * len(ranked)
        assert not forced.certified
        assert forced.primes == DEFAULT_PRIMES
        assert forced.rank == certified.rank - sum(ranked)

    def test_a_cell_whose_blocks_peel_runs_no_elimination(self, monkeypatch):
        # Full homotopy (5, 4): its strut-only forests are counted, and
        # every other block peels on its rows, so nothing is ranked; its
        # witness peels link rows only, and builds no IHX row either.
        def refuse(*_args, **_kwargs):
            raise AssertionError("a peeled cell ran an elimination or built IHX rows")

        for name in ("rank_multiprime", "cokernel_functionals"):
            monkeypatch.setattr(pipeline, name, refuse)
        rec = compute_dimension(H, "full", 5, 4)
        assert (rec.num_diagrams, rec.quotient_dim, rec.certified, rec.primes) == \
            (1485, strut_union_count(5, 4, H), True, DEFAULT_PRIMES[:1])
        monkeypatch.setattr(pipeline, "ihx_relations", refuse)
        doc = pipeline.sparse_witness(H, "full", 5, 4)
        struts = [col for col, enc in enumerate(doc["basis"])
                  if encoding_trivalent_count(bytes.fromhex(enc)) == 0]
        assert doc["functionals"] == [[(col, 1)] for col in struts]
        assert len(struts) == strut_union_count(5, 4, H)

    def test_a_block_whose_peel_falls_short_is_ranked(self, monkeypatch):
        # Full concordance (3, 7) has one orbit beyond the strut unions,
        # the block (4, 4, 4), whose rows leave columns unpeeled; its
        # rank falls short of its bound, so both primes rank it.
        real = pipeline.rank_multiprime
        ranked = []

        def counted(m, primes):
            ranked.append(m.num_cols)
            return real(m, primes)

        monkeypatch.setattr(pipeline, "rank_multiprime", counted)
        rec = compute_dimension(C, "full", 3, 7)
        assert (rec.num_diagrams, rec.quotient_dim, rec.certified, rec.primes) == \
            (5127, 793, False, DEFAULT_PRIMES)
        assert rec.quotient_dim == strut_union_count(3, 7, C) + 1
        assert ranked == [len(build_basis(BasisSpec(C, 3, "full", 7, (4, 4, 4))))]

    def test_deterministic_modulo_timing(self):
        a = compute_dimension(H, "y", 4, 1)
        b = compute_dimension(H, "y", 4, 1)
        assert strip_volatile(a) == strip_volatile(b)
        assert a.to_json() != "" and strip_volatile(a).to_json() == \
            strip_volatile(b).to_json()



@pytest.mark.parametrize("run,space,k,param", [
    (compute_dimension, "y", 5, 2), (compute_dimension, "full", 4, 3),
    (pipeline.sparse_witness, "full", 4, 3)])
def test_no_block_outlives_its_step(monkeypatch, run, space, k, param):
    # Each block is built, used and dropped inside one call, so when the
    # next block is asked for no earlier block is alive.  (The per-block
    # witness branch keeps its representative while it reduces the
    # orbit's other blocks; no cell here takes it.)
    real = pipeline.build_basis
    alive = []

    def counted(spec, *args, **kwargs):
        if spec.leaves is not None:
            alive.append(sum(isinstance(obj, Basis) and obj.spec.leaves is not None
                             for obj in gc.get_objects()))
        return real(spec, *args, **kwargs)

    monkeypatch.setattr(pipeline, "build_basis", counted)
    run(H, space, k, param)
    assert len(alive) > 1 and max(alive) == 0

class TestRecordSerialization:
    def test_json_roundtrip(self):
        rec = compute_dimension(H, "y", 3, 0)
        assert ResultRecord.from_json(rec.to_json()) == rec

    def test_csv_row_matches_header(self):
        rec = compute_dimension(H, "y", 3, 0)
        assert len(rec.csv_row().split(",")) == len(CSV_HEADER.split(","))


class TestCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        rec, cached = cache.get_or_compute(H, "y", 3, 1)
        assert not cached
        again, cached2 = cache.get_or_compute(H, "y", 3, 1)
        assert cached2
        assert again == rec

    def test_lookup_respects_tool_version(self, tmp_path):
        cache = ResultCache(tmp_path)
        rec, _ = cache.get_or_compute(H, "y", 3, 1)
        assert cache.lookup(H, "y", 3, 1, "other-version") is None
        assert cache.lookup(H, "y", 3, 1) == rec

    def test_distinct_keys_coexist(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.get_or_compute(H, "y", 3, 0)
        cache.get_or_compute(H, "full", 3, 2)
        cache.get_or_compute(C, "full", 2, 2)
        lines = (tmp_path / "results.jsonl").read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            ResultRecord.from_json(line)

    def test_record_without_certified_is_a_hit(self, tmp_path):
        # A line as written before records carried ``certified``.
        line = ('{"mode": "homotopy", "space": "y", "k": 3, "param": 0, '
                '"num_diagrams": 1, "num_relations_raw": 18, '
                '"num_relations_effective": 1, "rank": 1, "quotient_dim": 0, '
                '"primes": [2147483647, 2147483629], "elapsed_ms": 0, '
                f'"tool_version": "{__version__}", '
                '"timestamp": "2026-10-18T07:43:12+00:00"}\n')
        (tmp_path / "results.jsonl").write_text(line)
        rec, cached = ResultCache(tmp_path).get_or_compute(H, "y", 3, 0)
        assert cached
        assert rec.primes == (2147483647, 2147483629)
        assert not rec.certified
        assert (rec.rank, rec.quotient_dim) == (1, 0)
        assert rec.csv_row() == ("homotopy,y,3,0,1,18,1,1,0,2147483647;2147483629,0,"
                                 f"{__version__},2026-10-18T07:43:12+00:00")

    def test_corrupt_cache_raises(self, tmp_path):
        path = tmp_path / "results.jsonl"
        path.write_text("not json\n")
        with pytest.raises(CacheError):
            ResultCache(tmp_path).lookup(H, "y", 3, 0)

    def test_corrupt_middle_line_raises(self, tmp_path):
        cache = ResultCache(tmp_path)
        rec, _ = cache.get_or_compute(H, "y", 3, 0)
        path = tmp_path / "results.jsonl"
        path.write_text('{"mode": "homo\n' + rec.to_json() + "\n")
        with pytest.raises(CacheError):
            cache.lookup(H, "y", 3, 0)

    def test_torn_last_line_serves_and_accepts_records(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        first, _ = cache.get_or_compute(H, "y", 3, 0)
        path = tmp_path / "results.jsonl"
        with path.open("a", encoding="utf-8") as fh:
            fh.write('{"mode": "homo')
        assert cache.lookup(H, "y", 3, 0) == first
        second, cached = cache.get_or_compute(H, "y", 4, 0)
        assert not cached
        assert "torn last line" in capsys.readouterr().err
        third, cached = cache.get_or_compute(H, "y", 3, 1)
        assert not cached
        lines = path.read_text().split("\n")
        assert lines[1:] == ['{"mode": "homo', "", second.to_json(),
                             third.to_json(), ""]
        for rec in (first, second, third):
            assert cache.lookup(H, rec.space, rec.k, rec.param) == rec
        assert capsys.readouterr().err == ""


class TestCacheDirPrecedence:
    def test_flag_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        assert resolve_cache_dir(str(tmp_path / "flag")) == tmp_path / "flag"

    def test_env_when_no_flag(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"

    def test_default_cwd_cache(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        monkeypatch.chdir(tmp_path)
        assert resolve_cache_dir(None) == tmp_path / "cache"


class TestWitness:
    def test_schema_and_content(self):
        doc = compute_witness(H, "full", 3, 1)
        assert set(doc) == {"basis", "prime", "functionals"}
        assert doc["basis"] == ["0102", "0103", "0203"]
        assert doc["functionals"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        json.dumps(doc)

    def test_empty_for_trivial_quotient(self):
        doc = compute_witness(H, "y", 4, 1)
        assert doc["functionals"] == []


class TestCoefficientBound:
    def test_rows_stay_within_the_bound(self):
        cells = ([(H, "y", k, n) for k in range(3, 7) for n in range(3)]
                 + [(mode, "full", k, d) for mode in (H, C)
                    for k in range(1, 6) for d in range(1, 5)])
        for mode, space, k, param in cells:
            basis = build_basis(BasisSpec(mode, k, space, param))
            rows, _ = build_relations(basis)
            largest = SparseMatrix.from_rows(rows, len(basis)).max_abs_coefficient()
            bound = coefficient_bound(space, param)
            # n + 1 equal rest struts give a Y row its largest coefficient.
            assert largest == bound if space == "y" else largest <= bound, \
                (mode, space, k, param)


class TestFourColorFullSpace:
    def test_dims_equal_strut_union_counts(self):
        # With 4 colors every component of degree > 1 dies in the
        # quotient, so the dimension is the strut-union count.
        from strutforge.bases import strut_union_count
        for d, want in ((2, 21), (3, 56)):
            rec = compute_dimension(H, "full", 4, d)
            assert strut_union_count(4, d, H) == want
            assert rec.quotient_dim == want


def trivalent_block_quotient(basis, rows, trivalent):
    """Quotient dimension of the sub-block whose diagrams have the given
    trivalent-vertex count (relations never mix counts, so the block is
    closed)."""
    cols = [i for i, cd in enumerate(basis.elements)
            if encoding_trivalent_count(cd.encoding) == trivalent]
    remap = {col: j for j, col in enumerate(cols)}
    block_rows = [RelationRow(tuple((remap[c], v) for c, v in row.entries))
                  for row in rows if all(c in remap for c, _ in row.entries)]
    return rank_multiprime(
        SparseMatrix.from_rows(block_rows, len(cols))).quotient_dim


class TestBlockAgreement:
    def test_y_space_matches_full_space_block(self):
        for k, n in ((3, 1), (4, 1)):
            y_basis = enumerate_y_basis(k, n, H)
            y_rows = y_link_relations(k, n, H, y_basis)
            y_dim = rank_multiprime(
                SparseMatrix.from_rows(y_rows, len(y_basis))).quotient_dim
            full = enumerate_basis(k, n + 2, H)
            rows, _ = build_relations(full)
            assert trivalent_block_quotient(full, rows, 1) == y_dim
