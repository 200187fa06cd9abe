"""Byte-for-byte CLI outputs on the shipped problems.

Each run is pinned by the sha256 of its exit code, stdout and stderr, so a
change to any output byte of any command fails here.  After an intended
output change, re-pin with ``python tests/test_golden.py``, which prints
the new table.

The shipped problems stop at N = 3, so their reports pad each q^k
coefficient with at most three zeros; the deep cases (a 4x4 matrix flow at
N = 10 and KdV at N = 6) pin reports with up to ten and six.
"""

import hashlib
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

from qlax import mat_random
from qlax.cli import main

ROOT = Path(__file__).resolve().parent.parent


def cases():
    for path in sorted((ROOT / "problems").glob("*.json")):
        for command in ("lax-solve", "symmetry", "convergence"):
            yield (command, f"problems/{path.name}")
    for a, b in (("d", "u"), ("d + u", "d + u"), ("-4*d^3 + 3*(d*u + u*d)", "-d^2 + u"), ("d +", "u")):
        yield ("commutator", a, b)
    for extra in ((), ("--perturb", "1"), ("--perturb", "-1/10")):
        yield ("kdv-verify",) + extra


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode()).hexdigest()


def run_all() -> dict:
    return {
        " ".join(argv + ("--format", fmt)): digest(argv + ("--format", fmt))
        for argv in cases()
        for fmt in ("text", "json")
    }


DEEP_PROBLEMS = {
    "matrix4x4_n10.json": {
        "backend": "matrix",
        "L0": mat_random(4, 7, 3).scale(Fraction(2, 3)).to_json(),
        "P": [[0, mat_random(4, 11, 2).to_json()], [1, mat_random(4, 13, 2).to_json()]],
        "N": 10,
    },
    "kdv_n6.json": {"backend": "psdo", "L0": "-d^2 + u", "P": [[0, "-4*d^3 + 3*(d*u + u*d)"]], "N": 6},
}


def run_deep(directory: Path) -> dict:
    digests = {}
    for name, doc in DEEP_PROBLEMS.items():
        (directory / name).write_text(json.dumps(doc))
        for fmt in ("text", "json"):
            digests[f"lax-solve {name} --format {fmt}"] = digest(("lax-solve", str(directory / name), "--format", fmt))
    return digests


GOLDEN = {
    'lax-solve problems/kdv_n2.json --format text': 'b654a05aa59fea3f0116088e2b23e47d0ad45195e9b44ebc0c63162022b3ed8a',
    'lax-solve problems/kdv_n2.json --format json': 'f80056e3ee0c891a1dcff32ff374480b7165b4d42cfc6ec27242d6865d44907d',
    'symmetry problems/kdv_n2.json --format text': 'd4e2514e89836dcf0b1305529ef9d8c10033d4d7d8d77fef743d31487dacf40b',
    'symmetry problems/kdv_n2.json --format json': 'd4e2514e89836dcf0b1305529ef9d8c10033d4d7d8d77fef743d31487dacf40b',
    'convergence problems/kdv_n2.json --format text': 'd7083fe863ed79bb66ceb29d11f1058e3f71949a50359c213967f4d5cdbbbd59',
    'convergence problems/kdv_n2.json --format json': 'd7083fe863ed79bb66ceb29d11f1058e3f71949a50359c213967f4d5cdbbbd59',
    'lax-solve problems/kdv_symmetry_n2.json --format text': 'b654a05aa59fea3f0116088e2b23e47d0ad45195e9b44ebc0c63162022b3ed8a',
    'lax-solve problems/kdv_symmetry_n2.json --format json': 'f80056e3ee0c891a1dcff32ff374480b7165b4d42cfc6ec27242d6865d44907d',
    'symmetry problems/kdv_symmetry_n2.json --format text': '53bf3ea1cb2d66478467d1aa0e5d45424a6f324f96cc1ad84b5f7ee9ce3f159d',
    'symmetry problems/kdv_symmetry_n2.json --format json': 'ad124fdf2d754fbf5ccc03b84f154ca1db6d69cf08042b909f77cf7cdc7912b2',
    'convergence problems/kdv_symmetry_n2.json --format text': 'd7083fe863ed79bb66ceb29d11f1058e3f71949a50359c213967f4d5cdbbbd59',
    'convergence problems/kdv_symmetry_n2.json --format json': 'd7083fe863ed79bb66ceb29d11f1058e3f71949a50359c213967f4d5cdbbbd59',
    'lax-solve problems/matrix3x3_n2.json --format text': 'b164d7f3835b36ff83d40fb51a9a716e342c9d052bba13712b81c89eb959531a',
    'lax-solve problems/matrix3x3_n2.json --format json': '377717a7b0b46bc9ef4903a81aa07c0e8e351c3cff649bfd1dd1a8c168ff61d2',
    'symmetry problems/matrix3x3_n2.json --format text': 'd4e2514e89836dcf0b1305529ef9d8c10033d4d7d8d77fef743d31487dacf40b',
    'symmetry problems/matrix3x3_n2.json --format json': 'd4e2514e89836dcf0b1305529ef9d8c10033d4d7d8d77fef743d31487dacf40b',
    'convergence problems/matrix3x3_n2.json --format text': '3163ffccbfd1bcd6e8047caaf586b2740da1e32d731b5d3d13260f6b5abf222b',
    'convergence problems/matrix3x3_n2.json --format json': 'ba1c11e5426d1809f6d638f6b3392fbc17f52ef0ee2b0662c17b5db36863dea9',
    'lax-solve problems/matrix_symmetry_n3.json --format text': '71c93159e2e236ff98d6e0b01b36d6d7abd8812feef03beec30fe8509a93efd5',
    'lax-solve problems/matrix_symmetry_n3.json --format json': 'ab43d4d2b8fe3cc60ff309cca3629c338acfd746bdaf76ae592829e4300b40f5',
    'symmetry problems/matrix_symmetry_n3.json --format text': '53bf3ea1cb2d66478467d1aa0e5d45424a6f324f96cc1ad84b5f7ee9ce3f159d',
    'symmetry problems/matrix_symmetry_n3.json --format json': 'ad124fdf2d754fbf5ccc03b84f154ca1db6d69cf08042b909f77cf7cdc7912b2',
    'convergence problems/matrix_symmetry_n3.json --format text': '27152c81c4d1b82b4f14b032e52456570caf56962d50d7afd04f4afb367d2104',
    'convergence problems/matrix_symmetry_n3.json --format json': 'af5967f31c747dc38562b84260fdd0b1640e63b6a7cca26c5da97e6997444cf8',
    'lax-solve problems/nilpotent2x2_n2.json --format text': '261882b7aa4d9883f0b622734d14c8a871c490600ce1bf6614ddaf34cb674e57',
    'lax-solve problems/nilpotent2x2_n2.json --format json': 'ed98d1ad7e898e886e2b7e25d81c98cd0f5de59c0096f56188fb15b55001728f',
    'symmetry problems/nilpotent2x2_n2.json --format text': 'd4e2514e89836dcf0b1305529ef9d8c10033d4d7d8d77fef743d31487dacf40b',
    'symmetry problems/nilpotent2x2_n2.json --format json': 'd4e2514e89836dcf0b1305529ef9d8c10033d4d7d8d77fef743d31487dacf40b',
    'convergence problems/nilpotent2x2_n2.json --format text': 'cfe8a467b463f5e07fd6228f14a1b7a71619ec675015715b5bf7b69cb8ca2b96',
    'convergence problems/nilpotent2x2_n2.json --format json': '3237d3eabe9240a3a2d8c4c8320b74ad2d34d7ba4aef92696c002d891e3e07d1',
    'commutator d u --format text': 'a530a4faca75129bbf771b3750a128d6ef66bebe137a1069544853caeb5d028b',
    'commutator d u --format json': '973c266d91fe3c66e3e4366d781318a5926a659f9b891ce13dd05637ac422349',
    'commutator d + u d + u --format text': 'f7431ccde14dd3561d22a85828260907503cd2e8f3232e133663224eb86315e0',
    'commutator d + u d + u --format json': '31c22fa03941b3da381031d375b3c37944e781b6cc6298e3ecb583084c2b4e1a',
    'commutator -4*d^3 + 3*(d*u + u*d) -d^2 + u --format text': '400096dcffca953403952ce0c06bc32a8ef58ffa86185dbd940e3d7fc838d189',
    'commutator -4*d^3 + 3*(d*u + u*d) -d^2 + u --format json': '2fe119b79eb7edc94f729f72e0d0ee4affcef0214eccff21f82243ec5186d5f2',
    'commutator d + u --format text': '377a1d4707e05de6ba6f21617e0a5c34181a3565c9b6bf38a1a6bc30675e99cd',
    'commutator d + u --format json': '377a1d4707e05de6ba6f21617e0a5c34181a3565c9b6bf38a1a6bc30675e99cd',
    'kdv-verify --format text': '0dc3d5ea3853506d98c85fd77b1d6b0123cd33800d97cb8951907aa37cb123f6',
    'kdv-verify --format json': 'a21074332e4834e8de5e8875265321494c0ede0f34336a07959a2d9f647d5e27',
    'kdv-verify --perturb 1 --format text': '732e2788006d4705373d3207893ae0383d64b1d285e998174f36d6a88e705a3d',
    'kdv-verify --perturb 1 --format json': 'd055241ef798524d01d0d5a312ce110fb401b56a6a5acd8e759296ce9bcba275',
    'kdv-verify --perturb -1/10 --format text': '6ff93f90b7ddf6796243b3aeb3e1343b8b82940983535f371f1efcaeb8d8ce68',
    'kdv-verify --perturb -1/10 --format json': '7b46a9631ef4fcbb1689c1e1beb5ee06d0761c976da6251858488ad3d7ee2af2',
}


DEEP = {
    'lax-solve matrix4x4_n10.json --format text': '26f75eb5f9df27c41af5da35256cb10233314e79d6d2b019b841032b5a7e4c89',
    'lax-solve matrix4x4_n10.json --format json': '96513da35484f69955f4bb1d08e3252f9b40cd99d90aed6a66f2a2282e599460',
    'lax-solve kdv_n6.json --format text': 'c1ff09ddf29e63d6195d53d79815538f2f268ad6cea8b9da3443ff0adbead695',
    'lax-solve kdv_n6.json --format json': 'cc19ec958024cfeabf117514e176925dde7cfe52799d80ad4910f26fd9a9af5e',
}


def test_cli_outputs_are_byte_identical(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("QLAX_FORMAT", raising=False)
    assert run_all() == GOLDEN


def test_deep_reports_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("QLAX_FORMAT", raising=False)
    assert run_deep(tmp_path) == DEEP


if __name__ == "__main__":
    import os

    os.chdir(ROOT)
    for key, value in run_all().items():
        print(f"    {key!r}: {value!r},")
    print()
    with tempfile.TemporaryDirectory() as directory:
        for key, value in run_deep(Path(directory)).items():
            print(f"    {key!r}: {value!r},")
