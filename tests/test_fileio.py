import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arealbayes import fileio
from arealbayes.errors import SchemaError, ValidationError
from arealbayes.mcmc import ChainArchive, McmcConfig
from arealbayes.prep import IndicatorPanel, StrataTable
from arealbayes.simulate import make_lattice
from helpers import oracle_read_adjacency, recording_pool


class TestAdjacency:
    def test_round_trip(self, tmp_path):
        g = make_lattice(3, 4)
        path = tmp_path / "adj.csv"
        fileio.write_adjacency(path, g)
        edges = fileio.read_adjacency(path)
        from arealbayes.graph import build_graph

        assert build_graph(edges, n_areas=12) == g

    def test_bad_header(self, tmp_path):
        path = tmp_path / "adj.csv"
        path.write_text("a,b,c\n0,1,1.0\n")
        with pytest.raises(SchemaError, match="adj.csv:1"):
            fileio.read_adjacency(path)

    def test_non_integer_index_names_line(self, tmp_path):
        path = tmp_path / "adj.csv"
        path.write_text("src,dst,weight\n0,1,1.0\n0.5,2,1.0\n")
        with pytest.raises(SchemaError, match="adj.csv:3"):
            fileio.read_adjacency(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SchemaError, match="not found"):
            fileio.read_adjacency(tmp_path / "nope.csv")

    def test_clean_file_skips_the_row_loop(self, tmp_path):
        path = tmp_path / "adj.csv"
        fileio.write_adjacency(path, make_lattice(5, 6))
        with mock.patch.object(fileio, "_read_adjacency_rows") as loop:
            edges = fileio.read_adjacency(path)
        loop.assert_not_called()
        assert edges == oracle_read_adjacency(path)
        assert all(type(s) is int and type(d) is int and type(w) is float for s, d, w in edges)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_index_names_line(self, tmp_path, cell):
        path = tmp_path / "adj.csv"
        path.write_text(f"src,dst,weight\n0,1,1.0\n2,{cell},1.0\n")
        with pytest.raises(SchemaError, match="adj.csv:3: src and dst must be integers"):
            fileio.read_adjacency(path)

    # cells the schema accepts; "1_0" and '"2"' parse with float() and csv
    # but not with every array parser
    _INDEX = st.sampled_from(["0", "3", "17", " 4 ", "5.0", "+6", "-0", "1e1", "1_0", '"2"'])
    _WEIGHT = st.sampled_from(
        ["1", "0.25", " 2.5", "1e-3", "-0.0", "inf", "nan", "1_5", '"0.5"', "3."]
    )
    _BAD = st.sampled_from(["x", "", " ", "0x1", "1 2", "1.5", "--1", "nan(1)"])

    @settings(max_examples=120, deadline=None)
    @given(
        rows=st.lists(
            st.one_of(
                st.tuples(_INDEX, _INDEX, _WEIGHT).map(list),
                st.tuples(_INDEX, _INDEX, _WEIGHT, st.sampled_from(["x", "", "7"])).map(list),
                st.sampled_from([[], ["   "], [" ", "", " "]]),
            ),
            max_size=30,
        ),
        bad=st.one_of(st.none(), st.tuples(st.integers(0, 29), st.integers(0, 3), _BAD)),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_matches_the_row_loop_oracle(self, rows, bad, newline):
        # one bad cell at most (column 3 cuts the row to two cells): the
        # same edges, or the same message naming the same line and column
        if bad is not None and rows:
            row, column, cell = bad
            row = rows[row % len(rows)]
            if column == 3:
                del row[2:]
            elif len(row) > column:
                row[column] = cell
        text = newline.join(["src,dst,weight"] + [",".join(row) for row in rows]) + newline

        def outcome(read, path):
            try:
                return [(type(s), s, type(d), d, repr(w)) for s, d, w in read(path)]
            except SchemaError as exc:
                return str(exc)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "adj.csv"
            path.write_bytes(text.encode())
            assert outcome(fileio.read_adjacency, path) == outcome(oracle_read_adjacency, path)


class TestIndicators:
    def test_round_trip_with_missing(self, tmp_path):
        values = np.array([[1.0, np.nan], [0.25, -3.5]])
        panel = IndicatorPanel(["a", "b"], ["x", "y"], values)
        path = tmp_path / "ind.csv"
        fileio.write_indicators(path, panel)
        back = fileio.read_indicators(path)
        assert back.area_ids == ["a", "b"]
        assert back.columns == ["x", "y"]
        assert np.isnan(back.values[0, 1])
        assert back.values[1, 0] == 0.25

    def test_bad_cell_names_file_line_column(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text("area_id,x\n0,1.0\n1,oops\n")
        with pytest.raises(SchemaError, match=r"ind.csv:3: column 'x'"):
            fileio.read_indicators(path)

    def test_no_indicator_columns(self, tmp_path):
        path = tmp_path / "ind.csv"
        path.write_text("area_id\n0\n")
        with pytest.raises(SchemaError, match="no indicator columns"):
            fileio.read_indicators(path)


class TestCounts:
    def test_suppressed_round_trip(self, tmp_path):
        path = tmp_path / "counts.csv"
        fileio.write_counts(
            path, ["0", "1"], np.array([5.0, np.nan]), np.array([4.5, 6.25])
        )
        ids, observed, expected = fileio.read_counts(path)
        assert ids == ["0", "1"]
        assert observed[0] == 5.0
        assert np.isnan(observed[1])
        assert expected.tolist() == [4.5, 6.25]
        text = path.read_text()
        assert "1,,6.25" in text  # empty cell, not "nan"

    def test_missing_expected_rejected(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("area_id,observed,expected\n0,5,\n")
        with pytest.raises(SchemaError, match="'expected'"):
            fileio.read_counts(path)


class TestCovariatesAndStrata:
    def test_covariates_round_trip(self, tmp_path):
        path = tmp_path / "cov.csv"
        factors = np.array([[0.5, -1.0], [0.25, 2.0]])
        fileio.write_covariates(
            path, ["a", "b"], np.array([0.1, -0.2]), factors, ["f1", "f2"]
        )
        ids, ice, back, names = fileio.read_covariates(path)
        assert ids == ["a", "b"]
        assert names == ["f1", "f2"]
        assert np.array_equal(back, factors)

    def test_strata_round_trip_with_deaths(self, tmp_path):
        table = StrataTable(
            ["a", "b"], ["s1", "s2"],
            np.array([[100.0, 200.0], [300.0, 400.0]]),
            np.array([[1.0, 2.0], [3.0, np.nan]]),
        )
        path = tmp_path / "strata.csv"
        fileio.write_strata(path, table)
        back = fileio.read_strata(path)
        assert back.area_ids == ["a", "b"]
        assert back.strata == ["s1", "s2"]
        assert np.array_equal(back.population, table.population)
        assert back.deaths[0, 0] == 1.0
        assert np.isnan(back.deaths[1, 1])

    def test_shuffled_rows_give_the_sorted_table(self, tmp_path):
        rng = np.random.default_rng(12)
        n, k = 7, 4
        deaths = rng.integers(0, 9, (n, k)).astype(float)
        deaths[2, 1] = np.nan
        table = StrataTable([f"area{i}" for i in range(n)], [f"s{s}" for s in range(k)],
                            rng.integers(10, 99, (n, k)).astype(float), deaths)
        path = tmp_path / "sorted.csv"
        fileio.write_strata(path, table)
        header, *lines = path.read_text().splitlines()
        assert len(lines) == n * k  # line i * k + s holds (area i, stratum s)

        def read(order, name):
            out = tmp_path / name
            out.write_text("\n".join([header, *(lines[j] for j in order)]) + "\n")
            return fileio.read_strata(out)

        def check(back, area_order, stratum_order):
            assert back.area_ids == [table.area_ids[i] for i in area_order]
            assert back.strata == [table.strata[s] for s in stratum_order]
            expected = np.ix_(area_order, stratum_order)
            assert np.array_equal(back.population, table.population[expected])
            assert np.array_equal(back.deaths, table.deaths[expected], equal_nan=True)

        # every area, then every stratum, first appears in sorted order;
        # the other rows follow shuffled
        spine = [i * k for i in range(n)] + list(range(1, k))
        rest = rng.permutation(sorted(set(range(n * k)) - set(spine))).tolist()
        check(read(spine + rest, "spine.csv"), range(n), range(k))
        # any order: rows and columns follow first appearance
        order = rng.permutation(n * k).tolist()
        first = lambda keys: list(dict.fromkeys(keys))  # noqa: E731
        check(read(order, "shuffled.csv"),
              first(j // k for j in order), first(j % k for j in order))

    def test_duplicate_cell_rejected(self, tmp_path):
        path = tmp_path / "strata.csv"
        path.write_text(
            "area_id,stratum,population\n a,s1,10\na,s1,20\n"
        )
        with pytest.raises(SchemaError, match="duplicate"):
            fileio.read_strata(path)

    def test_rates_round_trip(self, tmp_path):
        path = tmp_path / "rates.csv"
        fileio.write_rates(path, ["s1", "s2"], np.array([0.01, 0.03]))
        strata, rates = fileio.read_rates(path)
        assert strata == ["s1", "s2"]
        assert rates.tolist() == [0.01, 0.03]


class TestIdKeyedReaders:
    def test_extremes_with_an_empty_total(self, tmp_path):
        path = tmp_path / "extremes.csv"
        path.write_text("area_id,privileged,deprived,total\na,10,5,20\nb,4,9,\n")
        ids, privileged, deprived, total = fileio.read_extremes(path)
        assert ids == ["a", "b"]
        assert privileged.tolist() == [10.0, 4.0] and deprived.tolist() == [5.0, 9.0]
        assert total[0] == 20.0 and np.isnan(total[1])
        assert all(a.flags.c_contiguous for a in (privileged, deprived, total))
        path.write_text("area_id,privileged,deprived,total\na,,5,20\n")
        with pytest.raises(SchemaError,
                           match=r"extremes.csv:2: column 'privileged': value required"):
            fileio.read_extremes(path)

    def test_scores_take_their_name_from_the_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("area_id,health,note\na,0.5,x\nb,,y\n")
        ids, scores, name = fileio.read_scores(path)
        assert (ids, name) == (["a", "b"], "health")
        assert scores[0] == 0.5 and np.isnan(scores[1])
        path.write_text("area_id\na\n")
        with pytest.raises(SchemaError,
                           match=r"scores.csv:1: header must start with area_id,<score>"):
            fileio.read_scores(path)

    def test_column_reads_only_the_named_column(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("area_id,name,x,y\na,first,1.5,oops\nb,second,,2\n")
        ids, x = fileio.read_column(path, "x")
        assert ids == ["a", "b"]
        assert x[0] == 1.5 and np.isnan(x[1])
        with pytest.raises(SchemaError, match=r"table.csv:1: no column named 'z'"):
            fileio.read_column(path, "z")
        with pytest.raises(SchemaError, match=r"table.csv:2: column 'y': expected a number"):
            fileio.read_column(path, "y")

    @pytest.mark.parametrize("reader, header", [
        (fileio.read_indicators, "area_id,x"), (fileio.read_counts, "area_id,observed,expected"),
        (fileio.read_covariates, "area_id,ice"), (fileio.read_rates, "stratum,rate"),
    ])
    def test_a_file_without_rows_is_rejected(self, tmp_path, reader, header):
        path = tmp_path / "empty.csv"
        path.write_text(header + "\n\n")
        with pytest.raises(SchemaError, match="empty.csv: no data rows"):
            reader(path)

    def test_counts_and_covariates_are_contiguous(self, tmp_path):
        fileio.write_counts(tmp_path / "counts.csv", ["a", "b"], [3.0, 1.0], [2.5, 1.5])
        fileio.write_covariates(tmp_path / "cov.csv", ["a", "b"], [0.1, -0.2],
                                np.array([[1.0, 2.0], [3.0, 4.0]]))
        _, observed, expected = fileio.read_counts(tmp_path / "counts.csv")
        _, ice, factors, _ = fileio.read_covariates(tmp_path / "cov.csv")
        assert all(a.flags.c_contiguous for a in (observed, expected, ice, factors))
        assert factors.tolist() == [[1.0, 2.0], [3.0, 4.0]]


class TestArchive:
    def _archive(self):
        config = McmcConfig(n_chains=2, n_iter=40, burn_in=10, thin=10, seed=7)
        rng = np.random.default_rng(0)
        chains = [
            {
                "beta": rng.standard_normal((3, 2)),
                "tau_v": rng.gamma(2.0, 1.0, 3),
            }
            for _ in range(2)
        ]
        return ChainArchive(
            chains, config.retained_iterations(), config,
            metadata={"model": "stage2_svc_M3", "likelihood": "poisson"},
        )

    def test_round_trip(self, tmp_path):
        archive = self._archive()
        path = tmp_path / "archive.csv"
        fileio.write_archive(archive, path)
        back = fileio.read_archive(path)
        assert back.config == archive.config
        assert back.iterations.tolist() == archive.iterations.tolist()
        assert back.metadata["model"] == "stage2_svc_M3"
        for c in range(2):
            for name in archive.param_names:
                assert np.array_equal(back.chains[c][name], archive.chains[c][name])
        assert back.chains[0]["tau_v"].ndim == 1
        assert back.chains[0]["beta"].ndim == 2

    def test_writes_are_deterministic(self, tmp_path):
        archive = self._archive()
        p1, p2 = tmp_path / "a1.csv", tmp_path / "a2.csv"
        fileio.write_archive(archive, p1)
        fileio.write_archive(archive, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "a1.csv.meta").read_bytes() == (tmp_path / "a2.csv.meta").read_bytes()
        assert (tmp_path / "a1.csv.npy").read_bytes() == (tmp_path / "a2.csv.npy").read_bytes()

    def test_golden_bytes(self, tmp_path):
        config = McmcConfig(n_chains=2, n_iter=30, burn_in=10, thin=10, seed=11)
        chains = [
            {
                "tau": np.array([1.5, np.nan]),
                "beta": np.array([[-0.0, 1e-310], [1.7976931348623157e308, 0.1]]),
            },
            {
                "tau": np.array([2.0, 1e-5]),
                "beta": np.array([[-1.25, 3.0], [1e22, -2.5e-7]]),
            },
        ]
        archive = ChainArchive(
            chains, config.retained_iterations(), config,
            metadata={"model": "stage2_svc_M2", "wall_time_s": "1.23", "accept_beta": "0.4"},
        )
        path = tmp_path / "archive.csv"
        fileio.write_archive(archive, path)
        assert path.read_bytes() == (
            b"chain,iter,param,index,value\n"
            b"0,20,beta,0,-0.0\n0,20,beta,1,1e-310\n"
            b"0,30,beta,0,1.7976931348623157e+308\n0,30,beta,1,0.1\n"
            b"0,20,tau,0,1.5\n0,30,tau,0,\n"
            b"1,20,beta,0,-1.25\n1,20,beta,1,3.0\n"
            b"1,30,beta,0,1e+22\n1,30,beta,1,-2.5e-07\n"
            b"1,20,tau,0,2.0\n1,30,tau,0,1e-05\n"
        )
        assert (tmp_path / "archive.csv.meta").read_bytes() == (
            b"n_chains = 2\nn_iter = 30\nburn_in = 10\nthin = 10\nseed = 11\n"
            b"param.beta = 2\nparam.tau = scalar\n"
            b"accept_beta = 0.4\nmodel = stage2_svc_M2\n"
        )

    @pytest.mark.parametrize("make", ["golden", "three chains"])
    def test_worker_count_does_not_change_the_bytes(self, tmp_path, make):
        archive = _golden_archive() if make == "golden" else _three_chain_archive()
        fileio.write_archive(archive, tmp_path / "serial.csv", n_workers=1)
        fileio.write_archive(archive, tmp_path / "parallel.csv", n_workers=2)
        for suffix in ("", ".meta", ".npy"):
            parallel = (tmp_path / f"parallel.csv{suffix}").read_bytes()
            assert parallel == (tmp_path / f"serial.csv{suffix}").read_bytes()

    @pytest.mark.parametrize("n_workers, size", [(64, 4), (3, 3)])
    def test_pool_is_capped_at_the_block_count(self, tmp_path, monkeypatch, n_workers, size):
        sizes = recording_pool(monkeypatch)
        fileio.write_archive(self._archive(), tmp_path / "a.csv", n_workers)  # 2 chains x 2 params
        assert sizes == [size]

    @pytest.mark.parametrize("cpus, chains, expected", [(1, 2, []), (2, 2, [2]), (4, 3, [3])])
    def test_default_workers_follow_the_affinity_set(
        self, tmp_path, monkeypatch, cpus, chains, expected
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        sizes = recording_pool(monkeypatch)
        config = McmcConfig(n_chains=chains, n_iter=40, burn_in=10, thin=10, seed=7)
        chains = [{"tau": np.full(3, float(c))} for c in range(chains)]  # one block per chain
        archive = ChainArchive(chains, config.retained_iterations(), config)
        fileio.write_archive(archive, tmp_path / "a.csv")
        assert sizes == expected

    def test_worker_count_below_one_writes_nothing(self, tmp_path):
        with pytest.raises(ValidationError, match="n_workers must be at least 1, got 0"):
            fileio.write_archive(self._archive(), tmp_path / "a.csv", n_workers=0)
        assert list(tmp_path.iterdir()) == []

    def test_write_hashes_the_bytes_it_writes(self, tmp_path):
        path = tmp_path / "archive.csv"
        with mock.patch.object(fileio, "_digests", side_effect=AssertionError("read back")):
            fileio.write_archive(self._archive(), path, n_workers=2)
        with mock.patch.object(fileio, "_parse_archive") as parse:
            fileio.read_archive(path)
        parse.assert_not_called()

    def test_meta_excludes_wall_time_style_keys(self, tmp_path):
        archive = self._archive()
        path = tmp_path / "archive.csv"
        fileio.write_archive(archive, path)
        meta = (tmp_path / "archive.csv.meta").read_text()
        assert "seed = 7" in meta
        assert "model = stage2_svc_M3" in meta


    def test_rows_in_any_order(self, tmp_path):
        archive = self._archive()
        path = tmp_path / "archive.csv"
        fileio.write_archive(archive, path)
        header, *rows = path.read_text().splitlines(keepends=True)

        def key(row):
            # chain 1 first, tau_v before beta, index-major: each chain-0
            # block still stamps the iterations in draw order
            chain, _, param, index, _ = row.split(",")
            return -int(chain), param == "beta", index

        rows.sort(key=key)
        path.write_text(header + "".join(rows))
        back = fileio.read_archive(path)
        assert back.iterations.tolist() == archive.iterations.tolist()
        for c in range(2):
            for name in archive.param_names:
                assert np.array_equal(back.chains[c][name], archive.chains[c][name])

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", "a=b", "a#b", "a\tb", "a\x00"])
    def test_rejects_names_that_need_quoting(self, tmp_path, name):
        archive = self._archive()
        for chain in archive.chains:
            chain[name] = chain.pop("tau_v")
        with pytest.raises(ValidationError, match="parameter name"):
            fileio.write_archive(archive, tmp_path / "archive.csv")

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("indicator_names", "a#1;b", "metadata values"),
            ("note", "two\nlines", "metadata values"),
            ("note", "cr\rhere", "metadata values"),
            ("a=b", "x", "metadata keys"),
            ("a#b", "x", "metadata keys"),
            ("a\nb", "x", "metadata keys"),
        ],
    )
    def test_rejects_metadata_the_sidecar_would_truncate(self, tmp_path, key, value, match):
        # read_config cuts a line at '#', so "a#1;b" would read back as "a"
        archive = self._archive()
        archive.metadata[key] = value
        with pytest.raises(ValidationError, match=match):
            fileio.write_archive(archive, tmp_path / "archive.csv")
        assert not (tmp_path / "archive.csv").exists()

    def _assert_refused(self, tmp_path, archive, match):
        with pytest.raises(ValidationError, match=match):
            fileio.write_archive(archive, tmp_path / "archive.csv")
        assert list(tmp_path.iterdir()) == []  # no CSV, .meta or .npy

    def test_rejects_name_with_trailing_whitespace(self, tmp_path):
        # the sidecar line "param.x  = 3" reads back as param.x
        archive = self._archive()
        for chain in archive.chains:
            chain["x "] = chain.pop("tau_v")
        self._assert_refused(tmp_path, archive, r"parameter names \['x '\] end in whitespace")

    def test_name_with_leading_whitespace_round_trips(self, tmp_path):
        archive = self._archive()
        for chain in archive.chains:
            chain[" a"] = chain.pop("tau_v")
        path = tmp_path / "archive.csv"
        fileio.write_archive(archive, path)
        back = fileio.read_archive(path)
        Path(f"{path}.npy").unlink()
        _assert_same_archive(back, fileio.read_archive(path))
        assert np.array_equal(back.chains[1][" a"], archive.chains[1][" a"])

    @pytest.mark.parametrize(
        "key, value", [(" note", "x"), ("note ", "x"), ("note", " x"), ("note", "x\t")]
    )
    def test_rejects_metadata_with_outer_whitespace(self, tmp_path, key, value):
        # read_config strips keys and values, so these would come back altered
        archive = self._archive()
        archive.metadata[key] = value
        self._assert_refused(tmp_path, archive, "begin or end in whitespace")

    @pytest.mark.parametrize("key", ["seed", "param.extra"])
    def test_rejects_reserved_metadata_keys(self, tmp_path, key):
        # "seed = 1" after the config's line would override the config's seed
        archive = self._archive()
        archive.metadata[key] = "1"
        self._assert_refused(tmp_path, archive, "reserved")

    def test_rejects_archive_without_draws(self, tmp_path):
        config = McmcConfig(n_chains=2, n_iter=40, burn_in=35, thin=10, seed=7)
        archive = ChainArchive([{"beta": np.empty((0, 2))} for _ in range(2)],
                               config.retained_iterations(), config)
        assert archive.n_retained == 0
        self._assert_refused(tmp_path, archive, "no retained draws")

    def test_rejects_repeated_iteration_stamps(self, tmp_path):
        archive = self._archive()
        archive.iterations = np.array([20, 20, 40])
        self._assert_refused(tmp_path, archive, "iteration stamps repeat")

    def test_rejects_draw_count_unlike_the_stamps(self, tmp_path):
        archive = self._archive()
        archive.iterations = np.array([20, 30])
        self._assert_refused(tmp_path, archive, "one draw for each of the 2 iterations")

    def test_rejects_matrix_per_draw(self, tmp_path):
        archive = self._archive()
        for chain in archive.chains:
            chain["m"] = np.zeros((3, 2, 2))
        self._assert_refused(tmp_path, archive, "more than one vector per draw")

    def _read_falls_back(self, path):
        with mock.patch.object(fileio, "_parse_archive", wraps=fileio._parse_archive) as parse:
            back = fileio.read_archive(path)
        parse.assert_called_once()
        return back

    def test_cache_read_skips_the_parse(self, tmp_path):
        archive = self._archive()
        path = tmp_path / "archive.csv"
        fileio.write_archive(archive, path)
        with mock.patch.object(fileio, "_parse_archive") as parse:
            back = fileio.read_archive(path)
        parse.assert_not_called()
        for c in range(2):
            for name in archive.param_names:
                assert back.chains[c][name].tobytes() == archive.chains[c][name].tobytes()

    def test_meta_only_edit_falls_back_to_the_parse(self, tmp_path):
        path = tmp_path / "archive.csv"
        fileio.write_archive(self._archive(), path)
        meta = Path(f"{path}.meta")
        meta.write_text(meta.read_text().replace("model = stage2_svc_M3", "model = stage2_svc_M4"))
        back = self._read_falls_back(path)
        assert back.metadata["model"] == "stage2_svc_M4"
        Path(f"{path}.npy").unlink()
        _assert_same_archive(back, fileio.read_archive(path))

    @pytest.mark.parametrize(
        "damage", ["truncated", "garbage", "empty", "other archive", "float32 values", "one value short"]
    )
    def test_damaged_cache_falls_back_to_the_parse(self, tmp_path, damage):
        path = tmp_path / "archive.csv"
        fileio.write_archive(self._archive(), path)
        cache = Path(f"{path}.npy")
        blob = cache.read_bytes()
        if damage in ("float32 values", "one value short"):
            with open(cache, "rb") as handle:
                digests, order, values = [np.load(handle) for _ in range(3)]
            values = values.astype(np.float32) if damage == "float32 values" else values[:-1]
            with open(cache, "wb") as handle:
                for array in (digests, order, values):
                    np.save(handle, array)
        elif damage == "other archive":
            other = self._archive()
            other.chains[0]["tau_v"][0] += 1.0
            fileio.write_archive(other, tmp_path / "other.csv")
            cache.write_bytes((tmp_path / "other.csv.npy").read_bytes())
        else:
            cache.write_bytes({"truncated": blob[: len(blob) // 2],
                               "garbage": bytes(range(256)) * 8, "empty": b""}[damage])
        back = self._read_falls_back(path)
        cache.unlink()
        _assert_same_archive(back, fileio.read_archive(path))

    def _corrupt(self, tmp_path, edit):
        path = tmp_path / "archive.csv"
        fileio.write_archive(self._archive(), path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(edit(lines)))
        return path

    @staticmethod
    def _raises_with_and_without_cache(path, match):
        # the edited CSV no longer matches the cache's digest, so the
        # reader parses it and fails exactly as it does with no cache
        assert Path(f"{path}.npy").exists()
        with pytest.raises(SchemaError, match=match) as kept:
            fileio.read_archive(path)
        Path(f"{path}.npy").unlink()
        with pytest.raises(SchemaError) as deleted:
            fileio.read_archive(path)
        assert str(kept.value) == str(deleted.value)

    @pytest.mark.parametrize("column", [0, 1, 3])
    def test_non_integer_cell_names_line(self, tmp_path, column):
        def edit(lines):
            cells = lines[3].split(",")
            cells[column] = "1.5"
            lines[3] = ",".join(cells)
            return lines

        path = self._corrupt(tmp_path, edit)
        self._raises_with_and_without_cache(path, r"archive.csv:4: expected 5 cells: integer chain")

    @pytest.mark.parametrize(
        "edit", [("beta", "gamma"), (",beta,1,", ",beta,2,"), ("1,40,", "1,41,")]
    )
    def test_row_outside_meta_or_chain0_names_line(self, tmp_path, edit):
        def apply(lines):
            row = next(r for r, line in enumerate(lines) if edit[0] in line)
            lines[row] = lines[row].replace(*edit)
            return lines

        path = self._corrupt(tmp_path, apply)
        self._raises_with_and_without_cache(path, r"archive.csv:\d+: param not in the .meta file")

    def test_missing_row_is_named(self, tmp_path):
        path = self._corrupt(tmp_path, lambda lines: lines[:4] + lines[5:])
        self._raises_with_and_without_cache(
            path, r"archive.csv: no row for chain 0, iter 30, param beta, index 1"
        )

    def test_duplicate_row_names_line(self, tmp_path):
        path = self._corrupt(tmp_path, lambda lines: lines + [lines[3]])
        self._raises_with_and_without_cache(path, r"archive.csv:20: duplicate chain, iter, param")

    @settings(max_examples=40, deadline=None)
    @given(
        n_chains=st.integers(1, 3),
        n_draws=st.integers(1, 4),
        widths=st.dictionaries(
            st.text("abcxyz_.0123456789 é", min_size=1, max_size=8).filter(
                lambda name: not name.endswith(" ")  # the writer refuses these
            ),
            st.one_of(st.none(), st.integers(1, 3)),
            min_size=1, max_size=3,
        ),
        metadata=st.dictionaries(
            st.text("abcdefgh_", min_size=1, max_size=6),
            st.text("abc0123456789._-", min_size=1, max_size=8),
            max_size=3,
        ),
        data=st.data(),
    )
    def test_round_trip_is_bit_exact(self, n_chains, n_draws, widths, metadata, data):
        metadata = {f"m_{key}": value for key, value in metadata.items()}
        config = McmcConfig(n_chains=n_chains, n_iter=10 + 3 * n_draws, burn_in=10, thin=3, seed=1)
        chains = [
            {
                name: np.array(
                    data.draw(
                        st.lists(
                            st.floats(allow_nan=True, allow_infinity=True),
                            min_size=n_draws * (width or 1), max_size=n_draws * (width or 1),
                        )
                    )
                ).reshape((n_draws,) if width is None else (n_draws, width))
                for name, width in widths.items()
            }
            for _ in range(n_chains)
        ]
        archive = ChainArchive(chains, config.retained_iterations(), config, metadata)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "archive.csv"
            fileio.write_archive(archive, path)
            with mock.patch.object(fileio, "_parse_archive", wraps=fileio._parse_archive) as parse:
                back = fileio.read_archive(path)
                parse.assert_not_called()
                Path(f"{path}.npy").unlink()
                parsed = fileio.read_archive(path)
                parse.assert_called_once()
        _assert_same_archive(back, parsed)
        assert back.config == config
        assert back.iterations.tolist() == archive.iterations.tolist()
        assert back.metadata == metadata
        for c in range(n_chains):
            for name in widths:
                got, want = back.chains[c][name], archive.chains[c][name]
                assert got.shape == want.shape
                # NaN is stored as an empty cell, so only its position survives
                assert np.array_equal(np.isnan(got), np.isnan(want))
                keep = ~np.isnan(want)
                assert got[keep].tobytes() == want[keep].tobytes()


def _golden_archive():
    """The archive whose bytes ``TestArchive.test_golden_bytes`` pins."""
    config = McmcConfig(n_chains=2, n_iter=30, burn_in=10, thin=10, seed=11)
    chains = [
        {"tau": np.array([1.5, np.nan]),
         "beta": np.array([[-0.0, 1e-310], [1.7976931348623157e308, 0.1]])},
        {"tau": np.array([2.0, 1e-5]),
         "beta": np.array([[-1.25, 3.0], [1e22, -2.5e-7]])},
    ]
    return ChainArchive(
        chains, config.retained_iterations(), config,
        metadata={"model": "stage2_svc_M2", "wall_time_s": "1.23", "accept_beta": "0.4"},
    )


def _three_chain_archive():
    config = McmcConfig(n_chains=3, n_iter=50, burn_in=20, thin=3, seed=4)
    rng = np.random.default_rng(12)
    chains = []
    for _ in range(3):
        v = rng.standard_normal((10, 5)) * 10.0 ** rng.integers(-300, 300, (10, 5))
        v[rng.random((10, 5)) < 0.2] = np.nan
        chains.append({"v": v, "tau_é": rng.gamma(2.0, 1.0, 10), "beta": -rng.random((10, 2))})
    return ChainArchive(chains, config.retained_iterations(), config, metadata={"model": "m"})


def _assert_same_archive(a, b):
    assert a.config == b.config
    assert a.metadata == b.metadata
    assert a.iterations.dtype == b.iterations.dtype
    assert a.iterations.tolist() == b.iterations.tolist()
    assert [list(chain) for chain in a.chains] == [list(chain) for chain in b.chains]
    for chain_a, chain_b in zip(a.chains, b.chains):
        for name in chain_a:
            x, y = chain_a[name], chain_b[name]
            assert (x.dtype, x.shape) == (y.dtype, y.shape)
            assert x.tobytes() == y.tobytes()  # NaN bits and positions included


class TestAtomicWrite:
    def test_no_partial_file_on_error(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(RuntimeError):
            with fileio.atomic_write(path) as handle:
                handle.write("partial")
                raise RuntimeError("boom")
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_replaces_existing(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old")
        with fileio.atomic_write(path) as handle:
            handle.write("new")
        assert path.read_text() == "new"


class TestConfigFile:
    def test_parse_with_comments(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# comment\niters = 500\n\nmodel = M3  # inline\n")
        conf = fileio.read_config(path)
        assert conf == {"iters": "500", "model": "M3"}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("just words\n")
        with pytest.raises(SchemaError, match="run.conf:1"):
            fileio.read_config(path)
