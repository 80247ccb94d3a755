"""Golden CLI output: the sha256 of stdout, and the exit code, for fixed argv.

The digests were recorded before ``dsl.check`` became one assignment loop
and before each input file came to be read once; any change to a report's
bytes shows here.  Input files are written under relative names into a
fresh directory, so the echoed argv and input paths are the same on every
run.
"""

import hashlib
import json

import pytest

from ortholab.cli import main

FILES = {
    "a.json": {"space_dim": 3, "basis": [["1", "1/2", "i"]]},
    "b.json": {"space_dim": 3, "basis": [["1", "0", "0"], ["0", "1", "-1/3i"]]},
    "prop.json": {
        "type": "or",
        "children": [
            {"type": "in_subspace", "subspace": {"space_dim": 2, "basis": [["1", "i"]]}},
            {
                "type": "expectation_in",
                "observable": {"rows": [["1/2", "0"], ["0", "-1/2"]]},
                "set": [{"lo": "-1/2", "hi": "1/2", "lo_closed": False, "hi_closed": True}],
            },
        ],
    },
    "state.json": {"state": ["1", "-i"]},
    "laws.txt": "# laws\nx & (y | z) = (x & y) | (x & z)\nx | y <= x\n!(x | y) = !x & !y\n",
}
DIST = "x & (y | z) = (x & y) | (x & z)"
J, T = ["--format", "json"], ["--format", "text"]

# name -> argv
CASES = {
    "demo-spin": J + ["demo", "spin"],
    "demo-hatch": J + ["demo", "hatch"],
    "demo-two-state": J + ["demo", "two-state"],
    "demo-spin-text": T + ["demo", "spin"],
    "demo-hatch-text": T + ["demo", "hatch", "--seed", "3"],
    "demo-two-state-text": T + ["demo", "two-state"],
    "lattice-meet": J + ["lattice", "meet", "a.json", "b.json"],
    "lattice-join": J + ["lattice", "join", "a.json", "b.json"],
    "lattice-ortho": J + ["lattice", "ortho", "a.json"],
    "lattice-leq": J + ["lattice", "leq", "a.json", "b.json"],
    "lattice-leq-reversed": J + ["lattice", "leq", "b.json", "a.json"],
    "lattice-join-text": T + ["lattice", "join", "a.json", "b.json"],
    "lattice-ortho-text": T + ["lattice", "ortho", "b.json"],
    "check-subspace": J + ["--seed", "3", "check", DIST, "--structure", "subspace"],
    "check-subspace-dim3": J
    + ["check", DIST, "--structure", "subspace", "--dim", "3", "--trials", "50", "--seed", "7"],
    "check-subspace-holds-text": T
    + ["check", "x & (x | y) = x", "--structure", "subspace", "--dim", "3", "--trials", "20"],
    "check-subspace-leq": J
    + ["check", "(x & y) | (x & z) <= x & (y | z)", "--structure", "subspace", "--trials", "30"],
    "check-subspace-constants": J + ["check", "1 & 0 = 0", "--structure", "subspace"],
    "check-boolean": J + ["check", DIST, "--structure", "boolean", "--dim", "3"],
    "check-boolean-counterexample": J + ["check", "x | y <= x", "--structure", "boolean"],
    "check-boolean-random": J
    + ["check", "a & (b | c) & (d | e) = a & (b | c) & (d | e)", "--structure", "boolean"]
    + ["--dim", "4", "--trials", "25", "--seed", "1"],
    "check-boolean-false-constant": J + ["check", "1 <= 0", "--structure", "boolean", "--dim", "1"],
    "check-boolean-file": J + ["check", "--file", "laws.txt", "--structure", "boolean"],
    "check-subspace-file-text": T
    + ["check", "--file", "laws.txt", "--structure", "subspace", "--trials", "40"],
    "props-eval": J + ["props", "eval", "prop.json", "state.json"],
    "props-eval-text": T + ["props", "eval", "prop.json", "state.json"],
}
# name -> (exit code, sha256 of stdout)
GOLDEN = {
    "check-boolean": (0, "d1b56b402b7920865d17c45f1e1eeacfe3083265769bf27ef5af8a09b7175538"),
    "check-boolean-counterexample": (1, "a713d08e6f04ac7951a509d8c220d527550fd324d2bf3e24b477c2238d47a5ab"),
    "check-boolean-false-constant": (1, "c4a4a7a9f1e7bd50179d2acf1162b7af301e167769e936b98fac665f3dec0f7a"),
    "check-boolean-file": (1, "fba96d64f73a32ec488497b9cd125560d84f0558e4a3fc750f9fcb2a98672d7c"),
    "check-boolean-random": (0, "b8ed89c86ca3dee416a82feae33ca8fabaa95b48a9792534c2790ad6209caa63"),
    "check-subspace": (1, "667928a82c9b02bd25d9f5092ab1ba19ca35433fa2cc388b97cb9ec854ae4dd7"),
    "check-subspace-constants": (0, "ca3b357fe038534e6b5256b07bdf6f705caae6ce691c3c98d54f719d43361807"),
    "check-subspace-dim3": (1, "2bea68fcbccc46b528649ccd8fb00e93bbbd8ab4c20a4f4e030e428d5b2ebdaf"),
    "check-subspace-file-text": (1, "3f40cb032f63ff593822d6d3d8891023ddd58207f4a8501ecbd36b7eac93a2be"),
    "check-subspace-holds-text": (0, "78a3f1db660308d3f7dfeff8a85351295edf24fa55e02de446031e53dda58014"),
    "check-subspace-leq": (0, "73e4dd67eb04d236fe6af2f987777e497b3a0012228ab4cdfc60ed0a7ef450ff"),
    "demo-hatch": (0, "a06925e526ce3558d20f83bae599e8c8628d57f1400caf284e07294df0c77bbe"),
    "demo-hatch-text": (0, "e3370e94cea3acc0c925121aa9cbeb456221b80ea38fa7ca0adca526af38cf34"),
    "demo-spin": (0, "381b70aa69b3fb62fdfb6a6b23336f23a7742708b88a84c7aeff70e26d798203"),
    "demo-spin-text": (0, "1f3844d3b157775f2aa280f1c601af45add5a6b9ac84bc821091811085e64920"),
    "demo-two-state": (0, "004255d1aedc138a675489688d5296c45c20ed39ae00091d929e39a806d1fdf9"),
    "demo-two-state-text": (0, "ac98534a515057b37f8cbebaf6a07a0a0b70b7d8d7542da50f82036d11f436a0"),
    "lattice-join": (0, "51ccdba5330b6cd256619ac47ff687db4a0d4a1f073fb4520ea7f6766ad6acfa"),
    "lattice-join-text": (0, "71c1f852b4f5958f5850c186c88634b3be6711e38bbe050a12897fa746a2cec6"),
    "lattice-leq": (0, "94fae86dc088e562ddc05c71cfba71a985aa78ef9a6d6f5df26b1141e53beb6f"),
    "lattice-leq-reversed": (0, "b67a00286b1b534f3695bf469982e93fb5dbb2e81ee7d247c6a56f78b0672a6d"),
    "lattice-meet": (0, "54cd91be1f0f473f7bd21e6d50478b66efdd72433df804a923dc895d868cf110"),
    "lattice-ortho": (0, "a4bc04175b391ae32152bf7f338d3ae70fdfd7ae49bf820cc4cbf27fedca0c53"),
    "lattice-ortho-text": (0, "4e5a2c9bb5767ba33eca88592608524e5c7a70da21ffbf1214ef9d4ac0b7cb22"),
    "props-eval": (0, "aa607a2730ad0912dd9304d66683b5c605d32621b209e1064ba77b8d64e293b1"),
    "props-eval-text": (0, "bbe927c24707082116e6fad072506e8e9716df91f1b90dea4fca576ae20b7bda"),
}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, content in FILES.items():
        text = content if isinstance(content, str) else json.dumps(content)
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_the_recorded_digest(capsys, workdir, name):
    code, digest = GOLDEN[name]
    assert main(list(CASES[name])) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
