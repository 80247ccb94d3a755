"""Golden ``dsl.check`` reports: the sha256 of ``check(...).to_json()``.

The digests were recorded while ``random_subspace`` still built a Fraction
and a Scalar for every entry and ``Matrix`` held Scalar rows.  They cover
the five lattice identities the benchmark checks, at dimensions 2, 4, 6
and 8, three seeds each and both scalar fields, with ten seeded
assignments per check.  A counterexample report carries the sampled
subspaces and the trial that found them, so any change to the RNG draws,
the lattice operations or the printed scalars shows here.
"""

import hashlib
import json

import pytest

from ortholab import dsl

STATEMENTS = {
    "orthomodular": "x | (!x & (x | y)) = x | y",
    "de-morgan": "!(x | y) = !x & !y",
    "absorption": "x & (x | y) = x",
    "weak-distributive": "(x & y) | (x & z) <= x & (y | z)",
    "distributive": "x & (y | z) = (x & y) | (x & z)",
}
TRIALS = 10

# (statement, field, dimension, seed) -> sha256 of the report's sorted-key JSON
GOLDEN = {
    ("orthomodular", "gaussian-rational", 2, 0): "1a3ff2262d529aac13d83ac0820fab0c505e1a8ccd786aa5f829ca9824bf410f",
    ("orthomodular", "gaussian-rational", 2, 1): "1a3ff2262d529aac13d83ac0820fab0c505e1a8ccd786aa5f829ca9824bf410f",
    ("orthomodular", "gaussian-rational", 2, 2): "1a3ff2262d529aac13d83ac0820fab0c505e1a8ccd786aa5f829ca9824bf410f",
    ("orthomodular", "gaussian-rational", 4, 0): "957ae7ff0da44939f515727b6690b347a34205977e10e00c7c5b97ffd6d56a1e",
    ("orthomodular", "gaussian-rational", 4, 1): "957ae7ff0da44939f515727b6690b347a34205977e10e00c7c5b97ffd6d56a1e",
    ("orthomodular", "gaussian-rational", 4, 2): "957ae7ff0da44939f515727b6690b347a34205977e10e00c7c5b97ffd6d56a1e",
    ("orthomodular", "gaussian-rational", 6, 0): "c80cce6def9b2a121c39bc4a8afefba802b76a2d9a183960995621f651804cf3",
    ("orthomodular", "gaussian-rational", 6, 1): "c80cce6def9b2a121c39bc4a8afefba802b76a2d9a183960995621f651804cf3",
    ("orthomodular", "gaussian-rational", 6, 2): "c80cce6def9b2a121c39bc4a8afefba802b76a2d9a183960995621f651804cf3",
    ("orthomodular", "gaussian-rational", 8, 0): "f880ec51db23dad7425b76d79a23453c50c4a9489ef4ebb122f45e8539b8252f",
    ("orthomodular", "gaussian-rational", 8, 1): "f880ec51db23dad7425b76d79a23453c50c4a9489ef4ebb122f45e8539b8252f",
    ("orthomodular", "gaussian-rational", 8, 2): "f880ec51db23dad7425b76d79a23453c50c4a9489ef4ebb122f45e8539b8252f",
    ("orthomodular", "rational-real", 2, 0): "985f5501369da3901be405f261b8179b1c9eea2125c7ae2b092b60743880a5b9",
    ("orthomodular", "rational-real", 2, 1): "985f5501369da3901be405f261b8179b1c9eea2125c7ae2b092b60743880a5b9",
    ("orthomodular", "rational-real", 2, 2): "985f5501369da3901be405f261b8179b1c9eea2125c7ae2b092b60743880a5b9",
    ("orthomodular", "rational-real", 4, 0): "c042c9a671ff40bdc391c60ae57934794317375ad1e7e10ec0e0857d3738e30a",
    ("orthomodular", "rational-real", 4, 1): "c042c9a671ff40bdc391c60ae57934794317375ad1e7e10ec0e0857d3738e30a",
    ("orthomodular", "rational-real", 4, 2): "c042c9a671ff40bdc391c60ae57934794317375ad1e7e10ec0e0857d3738e30a",
    ("orthomodular", "rational-real", 6, 0): "801f4516db794fc7c911d5e60e5c584df9b51993100ad94bcc2566b957a4047a",
    ("orthomodular", "rational-real", 6, 1): "801f4516db794fc7c911d5e60e5c584df9b51993100ad94bcc2566b957a4047a",
    ("orthomodular", "rational-real", 6, 2): "801f4516db794fc7c911d5e60e5c584df9b51993100ad94bcc2566b957a4047a",
    ("orthomodular", "rational-real", 8, 0): "187bc6ed6380f44ea1146afafc3b5750f063a82c808d03ef9651a1d5d1b6d63b",
    ("orthomodular", "rational-real", 8, 1): "187bc6ed6380f44ea1146afafc3b5750f063a82c808d03ef9651a1d5d1b6d63b",
    ("orthomodular", "rational-real", 8, 2): "187bc6ed6380f44ea1146afafc3b5750f063a82c808d03ef9651a1d5d1b6d63b",
    ("de-morgan", "gaussian-rational", 2, 0): "226f5c18d0605c2dce9e88d69b4290656cbf157139590eb1d74ae561e8a65f7c",
    ("de-morgan", "gaussian-rational", 2, 1): "226f5c18d0605c2dce9e88d69b4290656cbf157139590eb1d74ae561e8a65f7c",
    ("de-morgan", "gaussian-rational", 2, 2): "226f5c18d0605c2dce9e88d69b4290656cbf157139590eb1d74ae561e8a65f7c",
    ("de-morgan", "gaussian-rational", 4, 0): "d3a36d26a5a09b1096e66f90f954be31808c9bf6c50849281648375a1fa296f2",
    ("de-morgan", "gaussian-rational", 4, 1): "d3a36d26a5a09b1096e66f90f954be31808c9bf6c50849281648375a1fa296f2",
    ("de-morgan", "gaussian-rational", 4, 2): "d3a36d26a5a09b1096e66f90f954be31808c9bf6c50849281648375a1fa296f2",
    ("de-morgan", "gaussian-rational", 6, 0): "0a2688ff401398563927a7e0d4abc1200182a2a22d3329b4f609f2a981582fe0",
    ("de-morgan", "gaussian-rational", 6, 1): "0a2688ff401398563927a7e0d4abc1200182a2a22d3329b4f609f2a981582fe0",
    ("de-morgan", "gaussian-rational", 6, 2): "0a2688ff401398563927a7e0d4abc1200182a2a22d3329b4f609f2a981582fe0",
    ("de-morgan", "gaussian-rational", 8, 0): "8f3a8610b968cec2cb79f85a3323222e0c689423185ee43ff80f019b306cd533",
    ("de-morgan", "gaussian-rational", 8, 1): "8f3a8610b968cec2cb79f85a3323222e0c689423185ee43ff80f019b306cd533",
    ("de-morgan", "gaussian-rational", 8, 2): "8f3a8610b968cec2cb79f85a3323222e0c689423185ee43ff80f019b306cd533",
    ("de-morgan", "rational-real", 2, 0): "dfcb27e491c5db38f38666fa5e9ad9165dbcabf1907836cd1e6b2ff3ddc0dee5",
    ("de-morgan", "rational-real", 2, 1): "dfcb27e491c5db38f38666fa5e9ad9165dbcabf1907836cd1e6b2ff3ddc0dee5",
    ("de-morgan", "rational-real", 2, 2): "dfcb27e491c5db38f38666fa5e9ad9165dbcabf1907836cd1e6b2ff3ddc0dee5",
    ("de-morgan", "rational-real", 4, 0): "7270ce3c720fed9538e6a094b56bd42429d0b3898da07cc7de0aa5f7efcae163",
    ("de-morgan", "rational-real", 4, 1): "7270ce3c720fed9538e6a094b56bd42429d0b3898da07cc7de0aa5f7efcae163",
    ("de-morgan", "rational-real", 4, 2): "7270ce3c720fed9538e6a094b56bd42429d0b3898da07cc7de0aa5f7efcae163",
    ("de-morgan", "rational-real", 6, 0): "715c9b76bc77255d0520e2b74066c721ac66f06a0c7c59bb737006e92d27ed06",
    ("de-morgan", "rational-real", 6, 1): "715c9b76bc77255d0520e2b74066c721ac66f06a0c7c59bb737006e92d27ed06",
    ("de-morgan", "rational-real", 6, 2): "715c9b76bc77255d0520e2b74066c721ac66f06a0c7c59bb737006e92d27ed06",
    ("de-morgan", "rational-real", 8, 0): "e8c069f22eb050bec2757dd1b584a54b6beea0b7d456da7055faaf5348c0fe7f",
    ("de-morgan", "rational-real", 8, 1): "e8c069f22eb050bec2757dd1b584a54b6beea0b7d456da7055faaf5348c0fe7f",
    ("de-morgan", "rational-real", 8, 2): "e8c069f22eb050bec2757dd1b584a54b6beea0b7d456da7055faaf5348c0fe7f",
    ("absorption", "gaussian-rational", 2, 0): "ab415805c75fd0117e94e7b97f138745abb9ac922647cde3359c9971bf6f83b7",
    ("absorption", "gaussian-rational", 2, 1): "ab415805c75fd0117e94e7b97f138745abb9ac922647cde3359c9971bf6f83b7",
    ("absorption", "gaussian-rational", 2, 2): "ab415805c75fd0117e94e7b97f138745abb9ac922647cde3359c9971bf6f83b7",
    ("absorption", "gaussian-rational", 4, 0): "1aa061e9b5b88b95da0ce400c36a22abea6a344e46046e0d5298d3548c435d30",
    ("absorption", "gaussian-rational", 4, 1): "1aa061e9b5b88b95da0ce400c36a22abea6a344e46046e0d5298d3548c435d30",
    ("absorption", "gaussian-rational", 4, 2): "1aa061e9b5b88b95da0ce400c36a22abea6a344e46046e0d5298d3548c435d30",
    ("absorption", "gaussian-rational", 6, 0): "187222cb8fee49218c9b1ef4c02a097b77141e4273323db819934353fb5b1347",
    ("absorption", "gaussian-rational", 6, 1): "187222cb8fee49218c9b1ef4c02a097b77141e4273323db819934353fb5b1347",
    ("absorption", "gaussian-rational", 6, 2): "187222cb8fee49218c9b1ef4c02a097b77141e4273323db819934353fb5b1347",
    ("absorption", "gaussian-rational", 8, 0): "43111fd174ec955a627a9ec53df5c4be57e7231e8e469b7c59650cd6e05e93eb",
    ("absorption", "gaussian-rational", 8, 1): "43111fd174ec955a627a9ec53df5c4be57e7231e8e469b7c59650cd6e05e93eb",
    ("absorption", "gaussian-rational", 8, 2): "43111fd174ec955a627a9ec53df5c4be57e7231e8e469b7c59650cd6e05e93eb",
    ("absorption", "rational-real", 2, 0): "dcb832feb2c213433b4b3b4a0496358b06bb9662da86bada12bd78590303a39f",
    ("absorption", "rational-real", 2, 1): "dcb832feb2c213433b4b3b4a0496358b06bb9662da86bada12bd78590303a39f",
    ("absorption", "rational-real", 2, 2): "dcb832feb2c213433b4b3b4a0496358b06bb9662da86bada12bd78590303a39f",
    ("absorption", "rational-real", 4, 0): "2caf43a09fc1716cc9692d357898041bbc1c6d07128c704927462cc714eaf0ac",
    ("absorption", "rational-real", 4, 1): "2caf43a09fc1716cc9692d357898041bbc1c6d07128c704927462cc714eaf0ac",
    ("absorption", "rational-real", 4, 2): "2caf43a09fc1716cc9692d357898041bbc1c6d07128c704927462cc714eaf0ac",
    ("absorption", "rational-real", 6, 0): "1dbc08108c44bdf78072512050e6af88cb1ed8edf720ac883899157b4050e34b",
    ("absorption", "rational-real", 6, 1): "1dbc08108c44bdf78072512050e6af88cb1ed8edf720ac883899157b4050e34b",
    ("absorption", "rational-real", 6, 2): "1dbc08108c44bdf78072512050e6af88cb1ed8edf720ac883899157b4050e34b",
    ("absorption", "rational-real", 8, 0): "8357d2b47d46b5d61b1172aef376b408632a6faa5d8d8ceca295a6d5286866a9",
    ("absorption", "rational-real", 8, 1): "8357d2b47d46b5d61b1172aef376b408632a6faa5d8d8ceca295a6d5286866a9",
    ("absorption", "rational-real", 8, 2): "8357d2b47d46b5d61b1172aef376b408632a6faa5d8d8ceca295a6d5286866a9",
    ("weak-distributive", "gaussian-rational", 2, 0): "f35b32d2770761787c9acfabe59a2a5ae361259cb28c57ffe2ede4023ea572cf",
    ("weak-distributive", "gaussian-rational", 2, 1): "f35b32d2770761787c9acfabe59a2a5ae361259cb28c57ffe2ede4023ea572cf",
    ("weak-distributive", "gaussian-rational", 2, 2): "f35b32d2770761787c9acfabe59a2a5ae361259cb28c57ffe2ede4023ea572cf",
    ("weak-distributive", "gaussian-rational", 4, 0): "b4039b3b33d9111f1f0f8ff280fb02b7f094cca0e11ec907f0e88d3d5c8eeb9a",
    ("weak-distributive", "gaussian-rational", 4, 1): "b4039b3b33d9111f1f0f8ff280fb02b7f094cca0e11ec907f0e88d3d5c8eeb9a",
    ("weak-distributive", "gaussian-rational", 4, 2): "b4039b3b33d9111f1f0f8ff280fb02b7f094cca0e11ec907f0e88d3d5c8eeb9a",
    ("weak-distributive", "gaussian-rational", 6, 0): "46d6e887cdaef9909f0fb640a572f85ac5a7ed58bebfd3551f955ecfc16cd956",
    ("weak-distributive", "gaussian-rational", 6, 1): "46d6e887cdaef9909f0fb640a572f85ac5a7ed58bebfd3551f955ecfc16cd956",
    ("weak-distributive", "gaussian-rational", 6, 2): "46d6e887cdaef9909f0fb640a572f85ac5a7ed58bebfd3551f955ecfc16cd956",
    ("weak-distributive", "gaussian-rational", 8, 0): "ce6b67422c610fe61dd51b440ac9610b71f20e761d447d41fdf00880565988cc",
    ("weak-distributive", "gaussian-rational", 8, 1): "ce6b67422c610fe61dd51b440ac9610b71f20e761d447d41fdf00880565988cc",
    ("weak-distributive", "gaussian-rational", 8, 2): "ce6b67422c610fe61dd51b440ac9610b71f20e761d447d41fdf00880565988cc",
    ("weak-distributive", "rational-real", 2, 0): "0f370303b54604bd8c89c291a65a46717a656f3c4a2168c6f78ffd826492534c",
    ("weak-distributive", "rational-real", 2, 1): "0f370303b54604bd8c89c291a65a46717a656f3c4a2168c6f78ffd826492534c",
    ("weak-distributive", "rational-real", 2, 2): "0f370303b54604bd8c89c291a65a46717a656f3c4a2168c6f78ffd826492534c",
    ("weak-distributive", "rational-real", 4, 0): "11d18b62e654e4563b23c327fddd8e84c3e2a1837f399132792c9151b686174a",
    ("weak-distributive", "rational-real", 4, 1): "11d18b62e654e4563b23c327fddd8e84c3e2a1837f399132792c9151b686174a",
    ("weak-distributive", "rational-real", 4, 2): "11d18b62e654e4563b23c327fddd8e84c3e2a1837f399132792c9151b686174a",
    ("weak-distributive", "rational-real", 6, 0): "140b508b003944f826ef1e0101f6396c2f8fca8aa0fa6b8e53fc0812d4358f41",
    ("weak-distributive", "rational-real", 6, 1): "140b508b003944f826ef1e0101f6396c2f8fca8aa0fa6b8e53fc0812d4358f41",
    ("weak-distributive", "rational-real", 6, 2): "140b508b003944f826ef1e0101f6396c2f8fca8aa0fa6b8e53fc0812d4358f41",
    ("weak-distributive", "rational-real", 8, 0): "ce25dcca8891a412bdd0f01852a868a290588182d1fd7cf3a2ed0131ea42a0b0",
    ("weak-distributive", "rational-real", 8, 1): "ce25dcca8891a412bdd0f01852a868a290588182d1fd7cf3a2ed0131ea42a0b0",
    ("weak-distributive", "rational-real", 8, 2): "ce25dcca8891a412bdd0f01852a868a290588182d1fd7cf3a2ed0131ea42a0b0",
    ("distributive", "gaussian-rational", 2, 0): "c97b7303df141644c32530ab5f5ab9513ed825c67e48be50fa2c74ce52d2b171",
    ("distributive", "gaussian-rational", 2, 1): "083046ec69c2f001c9c459ce16f20e8d9e433caa12570de55f17d4c50ac1363c",
    ("distributive", "gaussian-rational", 2, 2): "11662b17f814f0b5fc85103a19397a3194e9d72511e8b7d404fec2cf9ba4989e",
    ("distributive", "gaussian-rational", 4, 0): "e2e04cba63bfd2b039c5636626ad3fdf92e60c6248a9757dda4e284ec85d106f",
    ("distributive", "gaussian-rational", 4, 1): "66467f51755cd66eeaa9a4d6f7828eb160c21fa1677a15c6d6a9a822f81ed512",
    ("distributive", "gaussian-rational", 4, 2): "8b13be520220b5fe8758c4982d017b5bbfe8a9c1a4b67dc3b6e9eb5c027e06ee",
    ("distributive", "gaussian-rational", 6, 0): "ca9040baf1aa83098f60617d94d8933db8dd9a343b3c111a90f613f27d334475",
    ("distributive", "gaussian-rational", 6, 1): "8f351bbc1d906b687b705ac507027263cca567eb0fc94d8a3ed33a380059ee32",
    ("distributive", "gaussian-rational", 6, 2): "40ceefd69e47ac6683b717109360492170d1a1952688bada2dc756c835007f63",
    ("distributive", "gaussian-rational", 8, 0): "60c6c3bee2aa6b2d4b5097bfdfba364041fc719783efc05234a38399865953e0",
    ("distributive", "gaussian-rational", 8, 1): "ea4ff30fbcdc81c7b499ff85ef011dacdeb0fb22485aaae1a277e626fa4531d1",
    ("distributive", "gaussian-rational", 8, 2): "1e523ef6cbc270e1da7c01751939e19d08d24c65b2259d3b13299da160a99434",
    ("distributive", "rational-real", 2, 0): "81ab5d40872684326b37ed98206b682858ec5d1679fda7600e098de52fe3c03b",
    ("distributive", "rational-real", 2, 1): "d9166e39cb39ad99c1f73f76d91ad0037c2a824de8728b0f424936f989dfdaea",
    ("distributive", "rational-real", 2, 2): "28fe1859fc546ca5587c8998c3fd2d057208f2249db3e092de8152f6325db656",
    ("distributive", "rational-real", 4, 0): "2ef14b1c47ba3b710c33f7c2f424aaeb99bd564ea18997ea9d287cfa5de0358f",
    ("distributive", "rational-real", 4, 1): "e75621d98c8ef02d89664d5ce09aea77b6f274d7b5a751fda3386bde09ed9e61",
    ("distributive", "rational-real", 4, 2): "77545c39d2b6cc99be64103eb0664857d8c17e353688251154a867fd4ec584f7",
    ("distributive", "rational-real", 6, 0): "c376217d0ceb7f42ba9c89d0e69bfb38bb8983c28bf45eb9789e65e271ad0e04",
    ("distributive", "rational-real", 6, 1): "c32a46355086fab606a6bde145c15f411cda9df64feab81a1be3a62959e6dc7b",
    ("distributive", "rational-real", 6, 2): "c51f5d0c7ac90d2963e6b36632fdfae5c76cc55060ab6d1a1e0cb2411ff3d5b2",
    ("distributive", "rational-real", 8, 0): "4ca61351685618a2f9a7c42b0129e7829b30fd511e6c61f7ff6d9b81e3a43954",
    ("distributive", "rational-real", 8, 1): "8be8313ff722e621e91f11fbaf249e7128fb79d04aab72c8f734c5fc636a160a",
    ("distributive", "rational-real", 8, 2): "288949af51364b3deb51471a3b0119168cd6d4ef21c5a49758a55474054e4784",
}


@pytest.mark.parametrize("label", STATEMENTS)
def test_check_reports_match_the_golden_digests(label):
    stmt = dsl.parse_statement(STATEMENTS[label])
    for (name, field, dim, seed), digest in GOLDEN.items():
        if name != label:
            continue
        report = dsl.check(stmt, dsl.SubspaceLattice(dim, field), trials=TRIALS, seed=seed)
        text = json.dumps(report.to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (name, field, dim, seed)


def test_every_case_is_pinned():
    assert len(GOLDEN) == len(STATEMENTS) * 2 * 4 * 3
