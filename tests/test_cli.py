"""Command-line surface: exit codes, formats, determinism."""
from __future__ import annotations

import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import anticollapse
from anticollapse import collapse, constructions
from anticollapse.cli import EXIT_FAIL, EXIT_OK, EXIT_REFUSAL, EXIT_USAGE, main
from anticollapse.collapse import ANTICOLLAPSE, Certificate, StepPair, apply_step
from anticollapse.complexes import (
    SimplicialComplex,
    digest,
    format_facet_file,
    from_facets,
    read_facet_file,
)
from anticollapse.constructions import C38_3_FACETS, Y28_2_FACETS, Y38_3_FACETS
from anticollapse.errors import StepError

from conftest import RP2_FACETS, dual_by_enumeration


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


def test_verify_cert_rejects_trivial_expansion_of_the_empty_complex(tmp_path, capsys):
    # "ground 1" alone is the complex whose only face is the empty face
    facets = tmp_path / "empty.facets"
    facets.write_text("ground 1\n", encoding="utf-8")
    start, point = read_facet_file(facets), from_facets([[1]])
    step = StepPair((), (1,), ANTICOLLAPSE)
    cert = tmp_path / "empty.cert"
    cert.write_text(Certificate(ANTICOLLAPSE, (step,), digest(start), digest(point)).to_json())
    assert main(["verify-cert", str(facets), str(cert)]) == EXIT_FAIL
    assert capsys.readouterr().out == "replay failed: added face () is already present\n"


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


def test_construct_certificate_ignores_seed(tmp_path, capsys):
    for seed in ("1", "2"):
        argv = ["construct", "--n", "10", "--d", "4", "--seed", seed, "--out", str(tmp_path / seed)]
        assert main(argv) == EXIT_OK
    cert = "witness_10_4.cert"
    assert (tmp_path / "1" / cert).read_bytes() == (tmp_path / "2" / cert).read_bytes()


def test_construct_refusal_exit_code(tmp_path, capsys):
    code = main(["construct", "--n", "8", "--d", "5", "--seed", "1", "--out", str(tmp_path)])
    assert code == EXIT_REFUSAL
    assert "refusal: d>=n-3" in capsys.readouterr().out


def test_seed_required(simplex_file, capsys):
    assert main(["collapse", simplex_file]) == EXIT_USAGE


def test_seed_auto_prints_chosen_seed(simplex_file, capsys):
    assert main(["collapse", simplex_file, "--seed", "auto"]) == EXIT_OK
    assert "# seed " in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["collapse", "SIMPLEX", "--seed", "auto"],
        ["collapse", "SIMPLEX", "--seed", "auto", "--out", "OUT"],
        ["anticollapse", "SIMPLEX", "--seed", "auto"],
        ["rdm", "SIMPLEX", "--seed", "auto"],
        ["kruskal", "--n", "6", "--d", "2", "--seed", "auto"],
        ["kruskal", "--n", "6", "--d", "2", "--seed", "auto", "--out", "OUT"],
        ["survey", "--n", "5", "--d", "2", "--trials", "2", "--seed", "auto"],
        ["construct", "--n", "8", "--d", "2", "--seed", "auto", "--out", "OUT"],
    ],
    ids=["collapse", "collapse-out", "anticollapse", "rdm", "kruskal", "kruskal-out",
         "survey", "construct"],
)
def test_seed_auto_prints_chosen_seed_once(argv, simplex_file, tmp_path, capsys):
    argv = [{"SIMPLEX": simplex_file, "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert sum(line.startswith("# seed ") for line in out.splitlines()) == 1


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_missing_file_is_usage_error(capsys):
    assert main(["homology", "/nonexistent/x.facets"]) == EXIT_USAGE


def test_bad_input_file(tmp_path, capsys):
    path = tmp_path / "bad.facets"
    path.write_text("1 1 2\n", encoding="utf-8")
    assert main(["homology", str(path)]) == EXIT_USAGE


@pytest.mark.parametrize(
    "text",
    ["groundx 5\n1 2\n", "ground \u00b2\n1 2\n", "1_0 2\n", "+3 1\n", "\uff11 2\n",
     f"ground {'7' * 5000}\n1 2\n", f"1 {'7' * 5000}\n"],
    ids=["directive-suffix", "superscript-ground", "underscore", "sign", "fullwidth-digit",
         "5000-digit-ground", "5000-digit-vertex"],
)
def test_malformed_numbers_and_directives_are_usage_errors(text, tmp_path, capsys):
    path = tmp_path / "bad.facets"
    path.write_text(text, encoding="utf-8")
    assert main(["homology", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def test_repeated_ground_directive_is_usage_error(tmp_path, capsys):
    path = tmp_path / "twice.facets"
    path.write_text("ground 5\nground 3\n1 2\n", encoding="utf-8")
    assert main(["homology", str(path)]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_oversized_ground_directive_is_usage_error(tmp_path, capsys):
    path = tmp_path / "huge.facets"
    path.write_text("ground 300000\n1 2\n", encoding="utf-8")
    assert main(["homology", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


def _cap_address_space():
    # the 1.5 GB cap of the CI probes: a missing guard ends in MemoryError,
    # not in a run that takes the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000 * 1024,) * 2)


@pytest.mark.parametrize(
    "text, argv",
    [
        (" ".join(map(str, range(1, 31))) + "\n", ["homology", "FILE"]),
        ("ground 40\n1 2\n", ["dual", "FILE"]),
        ("ground 40\n1 2\n", ["anticollapse", "FILE", "--seed", "1"]),
        ("", ["construct", "--n", "30", "--d", "2", "--seed", "1", "--out", "OUT"]),
        ("", ["kruskal", "--n", "40", "--d", "20", "--seed", "1"]),
        ("", ["survey", "--n", "40", "--d", "20", "--trials", "1", "--seed", "1"]),
    ],
    ids=["homology-facet-of-30", "dual-ground-40", "anticollapse-ground-40", "construct-n-30",
         "kruskal-n-40-d-20", "survey-n-40-d-20"],
)
def test_oversized_complexes_are_usage_errors(text, argv, tmp_path):
    # each would build 2^30 or more faces; the size guard refuses it first
    path = tmp_path / "big.facets"
    path.write_text(text, encoding="utf-8")
    argv = [{"FILE": str(path), "OUT": str(tmp_path / "out")}.get(a, a) for a in argv]
    env = {"PYTHONPATH": str(Path(anticollapse.__file__).parents[1])}
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "anticollapse.cli", *argv], env=env,
                          capture_output=True, text=True, preexec_fn=_cap_address_space)
    assert time.perf_counter() - started < 1
    assert done.returncode == EXIT_USAGE
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1 and "more than" in done.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["rdm", "--trials", "0"],
        ["rdm", "--trials", "-3"],
        ["collapse", "--budget", "0"],
        ["collapse", "--budget", "-5"],
        ["anticollapse", "--budget", "0"],
    ],
    ids=["rdm-zero", "rdm-negative", "collapse-zero", "collapse-negative", "anticollapse-zero"],
)
def test_counts_below_one_are_usage_errors(argv, simplex_file, capsys):
    command, *count = argv
    assert main([command, simplex_file, *count, "--seed", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "at least one" in captured.err


@pytest.mark.parametrize("case", ["undecodable facets", "undecodable cert", "directory", "out is a file"])
def test_unreadable_input_is_usage_error(case, simplex_file, tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\xff\xfe 1 2\n")
    argv = {
        "undecodable facets": ["homology", str(binary)],
        "undecodable cert": ["verify-cert", simplex_file, str(binary)],
        "directory": ["homology", str(tmp_path)],
        "out is a file": ["construct", "--n", "8", "--d", "2", "--seed", "1", "--out", str(binary)],
    }[case]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_reproduce_quick(capsys):
    assert main(["reproduce", "--quick"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "catalog Y28_2" in out
    assert "witness matrix n=10" in out
    assert "rows pass" in out


# sha256 of the reproduce --quick stdout; the table must stay byte-identical
REPRODUCE_QUICK_SHA256 = "38b1089d028cd43337ae8c4daccac6492bfa0e1df5b148ddd1798987174e10a4"


def test_reproduce_quick_output_pinned(capsys):
    assert main(["reproduce", "--quick"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPRODUCE_QUICK_SHA256


def count_calls(monkeypatch, module, names) -> dict[str, int]:
    """Count calls of module functions through every alias in the package."""
    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in list(sys.modules.items())
               if key == "anticollapse" or key.startswith("anticollapse.")]
    for name in names:
        original = getattr(module, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return counts


def test_reproduce_quick_checks_each_witness_once(monkeypatch, capsys):
    # cold caches: every catalog entry, golden base and witness is built and
    # checked by the table itself
    for cached in (constructions.catalog, constructions.load_base_case, constructions._witness):
        cached.cache_clear()
    counts = count_calls(monkeypatch, collapse, ("replay", "free_faces"))
    assert main(["reproduce", "--quick"]) == EXIT_OK
    capsys.readouterr()
    # two catalog transports, two golden bases and twelve witnesses replay;
    # one catalog entry, the golden bases and the witnesses scan free faces
    assert counts == {"replay": 16, "free_faces": 15}


def with_free_face():
    """The (8, 2) witness after its first expansion: a 3-complex on 8
    vertices whose added face is free, with the rest of the certificate."""
    X, free, coface = constructions._witness(8, 2)
    first = StepPair(X.face_of(free[0]), X.face_of(coface[0]), ANTICOLLAPSE)
    return apply_step(X, first), free[1:], coface[1:]


def truncated():
    """The (8, 2) witness with the last step of its certificate dropped."""
    X, free, coface = constructions._witness(8, 2)
    return X, free[:-1], coface[:-1]


@pytest.mark.parametrize("bad_witness, d, error, match", [
    (with_free_face, 3, RuntimeError, "free"),
    (truncated, 2, StepError, "end digest"),
])
def test_faulty_witness_fails_construct_and_reproduce(bad_witness, d, error, match,
                                                      monkeypatch, capsys):
    witness = bad_witness()
    monkeypatch.setattr(constructions, "_witness", lambda n, d: witness)
    with pytest.raises(error, match=match):
        constructions.theorem2_construct(8, d)
    assert main(["reproduce", "--quick"]) == EXIT_FAIL
    rows = capsys.readouterr().out.splitlines()
    assert any(r.startswith("witness matrix n=8 ") and "  FAIL" in r for r in rows)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda free, coface: (free, [float(v) for v in coface]),
        lambda free, coface: (free, [True if v == 1 else v for v in coface]),
        lambda free, coface: (free, coface[::-1]),
        lambda free, coface: (free[:1] + free[:-1], coface),
        lambda free, coface: ([0] + free, [0] + coface),
        lambda free, coface: (free, " ".join(map(str, coface))),
    ],
    ids=["float", "boolean", "unsorted", "repeated", "zero", "string"],
)
def test_verify_cert_rejects_noncanonical_vertex_lists(simplex_file, tmp_path, capsys, mutate):
    cert_path = tmp_path / "simplex.cert"
    main(["collapse", simplex_file, "--seed", "5", "--out", str(cert_path)])
    payload = json.loads(cert_path.read_text())
    payload["steps"][0] = list(mutate(*payload["steps"][0]))
    cert_path.write_text(json.dumps(payload))
    assert main(["verify-cert", simplex_file, str(cert_path)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert "replay ok" not in out
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "key, value",
    [("start", 5), ("end", ["a"]), ("start", "abc123"), ("end", "A" * 64)],
    ids=["int", "list", "short", "uppercase"],
)
def test_verify_cert_rejects_malformed_digests(simplex_file, tmp_path, capsys, key, value):
    cert_path = tmp_path / "simplex.cert"
    main(["collapse", simplex_file, "--seed", "5", "--out", str(cert_path)])
    payload = json.loads(cert_path.read_text())
    payload[key] = value
    cert_path.write_text(json.dumps(payload))
    assert main(["verify-cert", simplex_file, str(cert_path)]) == EXIT_USAGE
    assert "replay" not in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["bogus", "", None, ["collapse"]])
def test_verify_cert_rejects_unknown_kind(simplex_file, tmp_path, capsys, kind):
    start = digest(read_facet_file(simplex_file))
    cert_path = tmp_path / "simplex.cert"
    cert_path.write_text(json.dumps({"kind": kind, "start": start, "end": start, "steps": []}))
    assert main(["verify-cert", simplex_file, str(cert_path)]) == EXIT_USAGE
    assert "replay" not in capsys.readouterr().out


# -- seeded output pins -------------------------------------------------


def listed_dual(facets):
    return dual_by_enumeration(from_facets(facets, ground=range(1, 9))).facets()


PIN_INPUTS = {
    "rp2": RP2_FACETS,
    "Y28_2": Y28_2_FACETS,
    "Y38_3": Y38_3_FACETS,
    "C38_3": C38_3_FACETS,
    "dual_Y28_2": listed_dual(Y28_2_FACETS),
    "dual_Y38_3": listed_dual(Y38_3_FACETS),
}

PIN_COMMANDS = [
    ["dual", "in.facets"],
    ["dual", "in.facets", "--out", "out.facets"],
    ["collapse", "in.facets", "--seed", "3"],
    ["collapse", "in.facets", "--seed", "3", "--out", "out.cert"],
    ["anticollapse", "in.facets", "--seed", "3"],
    ["anticollapse", "in.facets", "--seed", "3", "--out", "out.cert"],
    ["rdm", "in.facets", "--trials", "4", "--seed", "5"],
    ["core", "in.facets"],
]


def run_pinned(argv, capsys) -> str:
    """sha256 over the exit code, stdout and every file the command wrote."""
    code = main(argv)
    h = hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode())
    for path in sorted(Path(".").glob("out.*")):
        h.update(path.name.encode() + b"\n" + path.read_bytes())
        path.unlink()
    return h.hexdigest()


# sha256 of each command in PIN_COMMANDS, in order, taken before faces
# became bitmasks; every seeded output must stay byte-identical.
CLI_PINS = {
    "C38_3": [
        "4f60bcfb134244e32ee2a77b326ba70d57c05025f5bc3d72425dcca04294bb88",
        "a12179e0bb4d6e812058b2c6d30001e467a216ff26f4ec3a54ce45883af015a0",
        "c7c698b0ffae983f10f21015475df98bd86ec2da180de89eb9d11899731ff6dd",
        "c7c698b0ffae983f10f21015475df98bd86ec2da180de89eb9d11899731ff6dd",
        "bde2ebe4cf990848291811c744be44d0b271f4cb7f9e39857f63cf50a9c61186",
        "bde2ebe4cf990848291811c744be44d0b271f4cb7f9e39857f63cf50a9c61186",
        "20b3af6171f4a9a2aef087678e76c1d4d0de66e97ad0b39aff3e3017ab98b43b",
        "3fc217a9f566876e4949c7deaab730a087250ecec50f2d7a74ce1d24093f495a",
    ],
    "Y28_2": [
        "9270fbd6474b50c57e775b1f44920c159a9fcb8be778c00a6bce511707fc0617",
        "006cf122b50733eb71e2d057af4998176d30987bfdd79a5018f457a708c6cfde",
        "81d072859e91221dfa16b99fc6bd529a62f61eb7a43801546ed1453ca3438f38",
        "e9e73821f8a5e38a677e6f4ea7b2591dbb58807483ba958d00eb7e91fabac04b",
        "bde2ebe4cf990848291811c744be44d0b271f4cb7f9e39857f63cf50a9c61186",
        "bde2ebe4cf990848291811c744be44d0b271f4cb7f9e39857f63cf50a9c61186",
        "be71a6fdd5efe233fe560e994a9742064d0a564f4d5247d7e87f62a70cd0d461",
        "63e3ae2b8f24f649af01317dcc6e5859271d17276604034df0ac329c0f46745a",
    ],
    "Y38_3": [
        "6a8ba4d14914a2465e67d6f297acabe3655900de3cae3c273b8d1acddc2b81f7",
        "dd81075dad40393ccb4060c75b17683dc07bc6416c589483318e3697cc8f3e43",
        "e5a931540e0b87a6bc9b35af0835f6a9f82c2bad01deb0af57aa11d8e7877b3c",
        "04bdb073fd9ecf103854ce659944d0ab751ca07ccc782f74ca584027204824c2",
        "bde2ebe4cf990848291811c744be44d0b271f4cb7f9e39857f63cf50a9c61186",
        "bde2ebe4cf990848291811c744be44d0b271f4cb7f9e39857f63cf50a9c61186",
        "621046bfafc8822c823839622d837bb0edf68c39ff68ed76069a8acbd2ec843c",
        "8ed3da12c096b70a6e1b5af156b70c32133bf4b5436b6f5bf2270996a5dff4c0",
    ],
    "dual_Y28_2": [
        "8a0c23d6eb275d4cd326871a419c4705571078e85205eb7f4f5ec83b44bbaff9",
        "d3e37671adaadb17f349a49721ac504214047c4a0612edeaa0a0f1ae5c8e5dac",
        "c7c698b0ffae983f10f21015475df98bd86ec2da180de89eb9d11899731ff6dd",
        "c7c698b0ffae983f10f21015475df98bd86ec2da180de89eb9d11899731ff6dd",
        "cfbef1881f5e3498baa39f73f07db1f0a26cb5951c5ec7e5a17eb7484ca191f4",
        "7233487b65bef028d3ad0bf6e8f07774d1c3076c7d2b6a0b2bda02bb0b4c9b0d",
        "a8620ca9b23d414fccfe47a0dae1a243c3a746fdeee8fdf7c5848da77c6ce962",
        "319bdeb0b55e4e7cb0bfbdc3256e40da2d15c2b862a9af0e5cebe50c7d1008f7",
    ],
    "dual_Y38_3": [
        "3da455539e1ce42d0435e9c2eeb223b63e40aea206643394aa62a9c2b92e40da",
        "2aded2ea7baa2f13a31471599da12f5abe9d1a81dd7a3ed53335d44ac7430fa0",
        "c7c698b0ffae983f10f21015475df98bd86ec2da180de89eb9d11899731ff6dd",
        "c7c698b0ffae983f10f21015475df98bd86ec2da180de89eb9d11899731ff6dd",
        "a3d8ae7ccf1eb01ffdc0f4e85139676f19620b6fa8d053620072be267cef144f",
        "caadaa9351c55083239cb7f4b4406240bb451936a8090fa35f7dad7aa3870244",
        "e38492110e2f073c986e164af17f20dd203d811abd14dd074e8604a9594ae7c2",
        "553441d38f7121c14e077c4523b2fb072438aceccbc55e84045ecc79e7c0cd71",
    ],
    "rp2": [
        "f530e2844001ec4d5e5546dfbb39e7dc9b8f4b0376735da2ac65dbcb416e1ca1",
        "0182f243d63ea6b88960b82cdd3fcf8af364fc1de864834744b8ea081e71709d",
        "c7c698b0ffae983f10f21015475df98bd86ec2da180de89eb9d11899731ff6dd",
        "c7c698b0ffae983f10f21015475df98bd86ec2da180de89eb9d11899731ff6dd",
        "bde2ebe4cf990848291811c744be44d0b271f4cb7f9e39857f63cf50a9c61186",
        "bde2ebe4cf990848291811c744be44d0b271f4cb7f9e39857f63cf50a9c61186",
        "c586880dcb918b81854ec35df07b744aacbacda2065ce7155506f83433632246",
        "b6cd422ee4c116e64213debe3a8a9067297ed1861aa284aa95aceef07449e7fe",
    ],
}


@pytest.mark.parametrize("name", sorted(PIN_INPUTS))
def test_cli_outputs_pinned(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    Path("in.facets").write_text(
        format_facet_file(from_facets(PIN_INPUTS[name])), encoding="utf-8"
    )
    assert [run_pinned(argv, capsys) for argv in PIN_COMMANDS] == CLI_PINS[name]


KRUSKAL_PINS = {
    (7, 2, 4): (
        "18697c47ced850858ff8ca89d39f680f77767217478e64ab2a133b6783396d5b",
        "002d457f9c151a975e66f804a2d5c4638254038bf16a0eb351951f4cc0df4560",
    ),
    (8, 3, 11): (
        "6f42ef61b6bd049c5dfff3e52a8331fecd731192b99ea6545ef73ce4db5b4811",
        "acd654f13d5f7840fe71a021f75855e924085aab9b10eeb57c269008048d9d61",
    ),
    (9, 4, 2): (
        "3938acb86d0f4ebcf0d5966917501a9da4690dd1df26816b199b54e04cdba2a9",
        "19e3a01d026b354fe73593a35a11329200b14a12571bbdbd09f3fb8bb02e38a1",
    ),
}


def test_kruskal_outputs_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for (n, d, seed), expected in KRUSKAL_PINS.items():
        argv = ["kruskal", "--n", str(n), "--d", str(d), "--seed", str(seed)]
        assert run_pinned(argv, capsys) == expected[0]
        assert run_pinned(argv + ["--out", "out.facets"], capsys) == expected[1]
