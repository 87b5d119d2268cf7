"""Command-line surface: exit codes, formats, determinism."""
from __future__ import annotations

import json
import pytest

from anticollapse.cli import EXIT_FAIL, EXIT_OK, EXIT_REFUSAL, EXIT_USAGE, main
from anticollapse.complexes import (
    SimplicialComplex,
    format_facet_file,
    from_facets,
    read_facet_file,
)

from conftest import RP2_FACETS


@pytest.fixture
def rp2_file(tmp_path) -> str:
    path = tmp_path / "rp2.facets"
    path.write_text(format_facet_file(from_facets(RP2_FACETS)), encoding="utf-8")
    return str(path)


@pytest.fixture
def simplex_file(tmp_path) -> str:
    path = tmp_path / "simplex.facets"
    path.write_text(format_facet_file(SimplicialComplex.simplex(4)), encoding="utf-8")
    return str(path)


def test_homology_output(rp2_file, capsys):
    assert main(["homology", rp2_file]) == EXIT_OK
    out = capsys.readouterr().out
    assert "dim 1: betti=0 torsion=[2]" in out
    assert "dim 0: betti=0 torsion=[]" in out


def test_dual_round_trip(simplex_file, tmp_path, capsys):
    out_path = tmp_path / "dual.facets"
    assert main(["dual", simplex_file, "--out", str(out_path)]) == EXIT_OK
    dual = read_facet_file(out_path)
    assert not dual.faces  # dual of the full simplex has no faces
    assert dual.ground_set == frozenset(range(1, 5))


def test_collapse_writes_verifiable_certificate(simplex_file, tmp_path, capsys):
    cert_path = tmp_path / "simplex.cert"
    code = main(["collapse", simplex_file, "--seed", "5", "--out", str(cert_path)])
    assert code == EXIT_OK
    assert main(["verify-cert", simplex_file, str(cert_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "replay ok" in out


def test_verify_cert_catches_tampering(simplex_file, tmp_path, capsys):
    cert_path = tmp_path / "simplex.cert"
    main(["collapse", simplex_file, "--seed", "5", "--out", str(cert_path)])
    payload = json.loads(cert_path.read_text())
    payload["steps"] = payload["steps"][:-1]
    cert_path.write_text(json.dumps(payload))
    assert main(["verify-cert", simplex_file, str(cert_path)]) == EXIT_FAIL


def test_collapse_failure_exit_code(tmp_path, capsys):
    path = tmp_path / "cycle.facets"
    path.write_text(
        format_facet_file(SimplicialComplex.simplex_boundary(3)), encoding="utf-8"
    )
    assert main(["collapse", str(path), "--seed", "1"]) == EXIT_FAIL


def test_anticollapse_subcommand(tmp_path, capsys):
    path = tmp_path / "path.facets"
    path.write_text(format_facet_file(from_facets([[1, 3], [2, 3]])), encoding="utf-8")
    cert_path = tmp_path / "path.cert"
    assert main(["anticollapse", str(path), "--seed", "2", "--out", str(cert_path)]) == EXIT_OK
    assert main(["verify-cert", str(path), str(cert_path)]) == EXIT_OK


def test_rdm_prints_one_vector_per_line(simplex_file, capsys):
    assert main(["rdm", simplex_file, "--trials", "3", "--seed", "9"]) == EXIT_OK
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert lines == ["(1, 0, 0, 0)"] * 3


def test_core_exit_codes(rp2_file, tmp_path, capsys):
    assert main(["core", rp2_file]) == EXIT_FAIL  # a closed surface is stuck
    tree = tmp_path / "tree.facets"
    tree.write_text(format_facet_file(from_facets([[1, 2], [2, 3]])), encoding="utf-8")
    assert main(["core", str(tree)]) == EXIT_OK


def test_kruskal_deterministic_output(tmp_path, capsys):
    a = tmp_path / "a.facets"
    b = tmp_path / "b.facets"
    assert main(["kruskal", "--n", "7", "--d", "2", "--seed", "4", "--out", str(a)]) == EXIT_OK
    assert main(["kruskal", "--n", "7", "--d", "2", "--seed", "4", "--out", str(b)]) == EXIT_OK
    assert a.read_text() == b.read_text()
    X = read_facet_file(a)
    assert X.n_faces(2) == 15


def test_survey_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    code = main(
        ["survey", "--n", "5", "--d", "2", "--trials", "5", "--seed", "3", "--out", str(csv_path)]
    )
    assert code == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "seed,facets,q_acyclic,torsion,dcollapsible,collapsible,anticollapsible,free_faces"


def test_construct_writes_witness(tmp_path, capsys):
    out_dir = tmp_path / "w"
    code = main(
        ["construct", "--n", "8", "--d", "2", "--seed", "1", "--out", str(out_dir)]
    )
    assert code == EXIT_OK
    facets = out_dir / "witness_8_2.facets"
    cert = out_dir / "witness_8_2.cert"
    assert facets.exists() and cert.exists()
    assert main(["verify-cert", str(facets), str(cert)]) == EXIT_OK


def test_construct_refusal_exit_code(tmp_path, capsys):
    code = main(["construct", "--n", "8", "--d", "5", "--seed", "1", "--out", str(tmp_path)])
    assert code == EXIT_REFUSAL
    assert "refusal: d>=n-3" in capsys.readouterr().out


def test_seed_required(simplex_file, capsys):
    assert main(["collapse", simplex_file]) == EXIT_USAGE


def test_seed_auto_prints_chosen_seed(simplex_file, capsys):
    assert main(["collapse", simplex_file, "--seed", "auto"]) == EXIT_OK
    assert "# seed " in capsys.readouterr().out


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_file_is_usage_error(capsys):
    assert main(["homology", "/nonexistent/x.facets"]) == EXIT_USAGE


def test_bad_input_file(tmp_path, capsys):
    path = tmp_path / "bad.facets"
    path.write_text("1 1 2\n", encoding="utf-8")
    assert main(["homology", str(path)]) == EXIT_USAGE


def test_reproduce_quick(capsys):
    assert main(["reproduce", "--quick"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "catalog Y28_2" in out
    assert "witness matrix n=10" in out
    assert "rows pass" in out


@pytest.mark.parametrize(
    "mutate",
    [
        lambda free, coface: (free, [float(v) for v in coface]),
        lambda free, coface: (free, [True if v == 1 else v for v in coface]),
        lambda free, coface: (free, coface[::-1]),
        lambda free, coface: (free[:1] + free[:-1], coface),
    ],
    ids=["float", "boolean", "unsorted", "repeated"],
)
def test_verify_cert_rejects_noncanonical_vertex_lists(simplex_file, tmp_path, capsys, mutate):
    cert_path = tmp_path / "simplex.cert"
    main(["collapse", simplex_file, "--seed", "5", "--out", str(cert_path)])
    payload = json.loads(cert_path.read_text())
    payload["steps"][0] = list(mutate(*payload["steps"][0]))
    cert_path.write_text(json.dumps(payload))
    assert main(["verify-cert", simplex_file, str(cert_path)]) == EXIT_USAGE
    assert "replay ok" not in capsys.readouterr().out
