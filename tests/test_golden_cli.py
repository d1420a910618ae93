"""CLI output is the oracle for "same behaviour": each command below has its
stdout (sha256) and exit code pinned.  A refactor that changes any byte of
the output, or an exit code, fails here.

To regenerate the pins after a deliberate change of output, run

    PYTHONPATH=src python tests/test_golden_cli.py

and paste the printed table over PINS.  To compare every command with its
pin on an interpreter without pytest, run

    PYTHONPATH=src python tests/test_golden_cli.py --check

which exits 1 if any command differs.  So this module imports nothing of
pytest: the pinned test is parametrized by `pytest_generate_tests`."""

import argparse
import hashlib
import io
import json
import sys
from contextlib import redirect_stdout

from cobcalc.cli import main

P1 = {"type": "multiproj", "dims": [1]}
P2 = {"type": "multiproj", "dims": [2]}
P3 = {"type": "multiproj", "dims": [3]}
F1 = {"type": "projbundle", "base": P1, "lines": [[0], [1]]}
P2_AS_BUNDLE = {"type": "projbundle", "base": {"type": "multiproj", "dims": []}, "lines": [[], [], []]}
PB_P2 = {"type": "projbundle", "base": P2, "lines": [[0], [1], [3]]}
PB_PB = {"type": "projbundle", "base": F1, "lines": [[0, 0], [1, 0], [0, 1]]}
# a negative line: c(-T) divides by 1 + xi - 2h
PB_NEG = {"type": "projbundle", "base": P2, "lines": [[-2], [0], [1]]}
# linear_pn(n=5, a=1) with one normal line of the first component perturbed
BROKEN = {
    "ambient": {"type": "multiproj", "dims": [5]},
    "components": [
        {"spec": P1, "codim": 4, "normal_lines": [[1], [1], [1], [3]]},
        {"spec": P3, "codim": 2, "normal_lines": [[1], [1]]},
    ],
}
# P^2 with only a line fixed: the Euler congruence fails
MISSING_POINT = {"ambient": P2, "components": [{"spec": P1, "codim": 1, "normal_lines": [[1]]}]}
# a normal bundle that subtracts a trivial summand
MINUS_TRIVIAL = {
    "ambient": {"type": "multiproj", "dims": [2, 2]},
    "components": [{"spec": P2, "codim": 2, "normal_lines": [[1], [1], [1]], "normal_minus_trivial_rank": 1}],
}


def _j(obj):
    return json.dumps(obj, sort_keys=True)


COMMANDS = {
    "verify-all-linear-5-1": "verify --theorem all --builtin linear_pn --n 5 --a 1",
    "verify-all-linear-6-2": "verify --theorem all --builtin linear_pn --n 6 --a 2",
    "verify-all-linear-4-0": "verify --theorem all --builtin linear_pn --n 4 --a 0",
    "verify-all-linear-7-3": "verify --theorem all --builtin linear_pn --n 7 --a 3",
    "verify-all-factorwise-3": "verify --theorem all --builtin factorwise_p1n --n 3",
    "verify-all-swap-p3": ["verify", "--theorem", "all", "--builtin", "swap_square", "--spec", _j(P3)],
    "verify-all-swap-bundle": ["verify", "--theorem", "all", "--builtin", "swap_square", "--spec", _j(P2_AS_BUNDLE)],
    "verify-all-swap-point": ["verify", "--theorem", "all", "--builtin", "swap_square", "--spec",
                              _j({"type": "multiproj", "dims": [0]})],
    "verify-ks-linear-5-2": "verify --theorem ks --builtin linear_pn --n 5 --a 2",
    "verify-ks-alpha": "verify --theorem ks --builtin linear_pn --n 4 --a 1 --alpha [2,1]",
    "verify-l2-max-m": "verify --theorem l2 --builtin linear_pn --n 4 --a 1 --max-m 2",
    "verify-lmod2-linear-3-1": "verify --theorem lmod2 --builtin linear_pn --n 3 --a 1",
    "verify-lmod2-swap-p2": ["verify", "--theorem", "lmod2", "--builtin", "swap_square", "--spec", _j(P2)],
    "verify-decomposable-p3": "verify --theorem decomposable --builtin linear_pn --n 3 --a 0 --p 3",
    "verify-additive-linear-7-3": "verify --theorem additive --builtin linear_pn --n 7 --a 3",
    "verify-additive-linear-6-2": "verify --theorem additive --builtin linear_pn --n 6 --a 2",
    "verify-additive-factorwise-3": "verify --theorem additive --builtin factorwise_p1n --n 3",
    "verify-trivial-normal": "verify --theorem trivial-normal --builtin factorwise_p1n --n 2",
    "verify-all-broken": ["verify", "--theorem", "all", "--action", _j(BROKEN)],
    "verify-all-missing-point": ["verify", "--theorem", "all", "--action", _j(MISSING_POINT)],
    "verify-all-minus-trivial": ["verify", "--theorem", "all", "--action", _j(MINUS_TRIVIAL)],
    "chern-p2": ["chern", "--spec", _j(P2)],
    "chern-p1xp2": ["chern", "--spec", _j({"type": "multiproj", "dims": [1, 2]})],
    "chern-projbundle": ["chern", "--spec", _j(PB_P2)],
    "chern-projbundle-projbundle": ["chern", "--spec", _j(PB_PB)],
    "chern-projbundle-neg-line": ["chern", "--spec", _j(PB_NEG)],
    "chern-product": ["chern", "--spec", _j({"type": "product", "factors": [P1, F1]})],
    "chern-disjoint": ["chern", "--spec", _j({"type": "disjoint", "components": [P2, F1]})],
    "chern-alpha": ["chern", "--spec", _j(P3), "--alpha", "[2,1]"],
    "chern-p24": ["chern", "--spec", _j({"type": "multiproj", "dims": [24]})],
    "chern-p32": ["chern", "--spec", _j({"type": "multiproj", "dims": [32]})],
    "fgl-universal-mult": "fgl --law universal --order 6 --mult 2",
    "fgl-chx-mult": "fgl --law chx --order 5 --mult 3",
    "fgl-cha-mult": "fgl --law cha --order 5 --mult -2",
    "fgl-chx-order-18": "fgl --law chx --order 18",
    "fgl-cha-order-12": "fgl --law cha --order 12",
    "fgl-chx-inverse-12": "fgl --law chx --order 12 --mult -1",
    "fgl-mod-3": "fgl --law universal-mod-p --p 3 --order 5",
    "fgl-additive": "fgl --law additive --order 4",
    "fgl-universal-inverse": "fgl --law universal --order 10 --mult -1",
    "fgl-universal-mult-3": "fgl --law universal --order 10 --mult 3",
    "fgl-universal-mult-neg-3": "fgl --law universal --order 10 --mult -3",
    "fgl-mod-2-inverse": "fgl --law universal-mod-p --p 2 --order 8 --mult -1",
    "fgl-mod-3-mult-2": "fgl --law universal-mod-p --p 3 --order 8 --mult 2",
    "catalog": "catalog",
    "error-chern-alpha": ["chern", "--spec", _j(P3), "--alpha", "[1,2]"],
    "error-ks-alpha": "verify --theorem ks --builtin linear_pn --n 3 --a 1 --alpha [1,2]",
    "error-mod-4": "fgl --law universal-mod-p --p 4 --order 3",
    "error-spec": ["chern", "--spec", _j({"type": "projbundle", "base": P1})],
    "error-action": ["verify", "--theorem", "euler", "--action",
                     _j({"ambient": P2, "components": [{"spec": P1, "codim": 1, "normal_lines": 5}]})],
}

# name -> (exit code, sha256 of stdout)
PINS = {
    'catalog': (0, '16544fd6aa2d2e896cbe0d138e8d00e41acf8328d3f6b48f4433fedd7f13b509'),
    'chern-alpha': (0, '8f7d15ea19faf666ef0e83662c756e46a8490c2edafb90be4da8887354eb1adf'),
    'chern-disjoint': (0, '6b4481e2a5f33a9fd579c67981ec7f2d793b97c43c72994e207a95f69b26cd71'),
    'chern-p1xp2': (0, 'af1bce05aec5f47c9ee5b19cd97ae1e3491f783f01187de126edb7ac0448e7f1'),
    'chern-p2': (0, '2e136602a9ee67085c0bdfa5a8a774dd4f80abe353049597c14339294a94e00f'),
    'chern-p24': (0, '99c1256e046ae796193a18b21eee3745f6d36afae472264a2efde778539d3033'),
    'chern-p32': (0, '0e682a87b7241670b287b06865fa6bd86aaec50835dc6d9e4ca2c532aa9c9182'),
    'chern-product': (0, '74ec1fefd53348cc7a50535a2325ed82bc8d44ea71bec43b4fa1a6069a0d7118'),
    'chern-projbundle': (0, 'f3773fbdaa94e4bd8e8913e56340721f94760c0b96e2e12a2c1fdb778751b3ac'),
    'chern-projbundle-neg-line': (0, '75310a4455922290791e983e733963bfcfe62e2e1e7111098a25d633de735c49'),
    'chern-projbundle-projbundle': (0, '298c783c5a9028fe725fd82c846ac7777a25eeb3cbb665300c28657c05eecf59'),
    'error-action': (2, 'f8d4a99521d213d21fed951545a17bd77433823517d824b6e45ec6c85a3ef5f3'),
    'error-chern-alpha': (2, '7465a959212ffc3b4215004cbe81f9cf62203f7803be552a103f3424a11d4266'),
    'error-ks-alpha': (2, '8f8de7b19936e0578dd833043610d0120502a41a193e7c6d6dd714a9940f6f2a'),
    'error-mod-4': (2, '0221f86aed8a8dcbd21fe77795f69fbd3cbecb9979cdf4ea51752616d9e0e4c0'),
    'error-spec': (2, '1a3287fa3a19c67b71c613116285766c39381a33387eacdf76c8a68258619ca9'),
    'fgl-additive': (0, 'ce944fa12d7eaf9a35a6b84d6afcf2db34efce344c941c56b5496df42e3b6ff1'),
    'fgl-cha-mult': (0, '852af84fcf5e2d81d3cf7a2d1ec24417d8afe9dcfe276779d3965e177c4a18cb'),
    'fgl-cha-order-12': (0, 'c8a6f24042aa2e7c0f260e88c7d04bda0e5b23f374d276f3f9ecfa753d062423'),
    'fgl-chx-inverse-12': (0, 'e15db4094ce19f2a9b2eae0623fa49ff532957bc2f19cfd0dd4576a3a0d25834'),
    'fgl-chx-mult': (0, '04b80540942aaa29c04d5d23204527134730a95ba36cc439007f043410fa1898'),
    'fgl-chx-order-18': (0, '2120b5465764af3bcba3a85adef3c1d199b4b5330cef344b76470dec1bd812f6'),
    'fgl-mod-2-inverse': (0, '62fd0f4efdb29b826070c25d1a7e61cb9516f8fd2e6a24cc9441d11cfe43910f'),
    'fgl-mod-3': (0, '7b5b0aff546587c17afd5293df60fe0e42dc0bfb1aa178e7d9c373891c4f730e'),
    'fgl-mod-3-mult-2': (0, '7962d2c06140c1ebcd2d138ff322361ce51d541c689e8be20d17a9476253d7a3'),
    'fgl-universal-inverse': (0, 'cc8eaf619a270c0411e6be0467ac71b036f1ff161f45841f3155375c13f768a2'),
    'fgl-universal-mult': (0, '068326ae6fd60551a987eafd222b6ebddc79cff53023c6b6e27a646a7be7ee7b'),
    'fgl-universal-mult-3': (0, 'ccf5eeebdcb7eec6e77cd59e4bde589cdffa3df4d93b4c556b0a7c6ae457c3fe'),
    'fgl-universal-mult-neg-3': (0, 'da9d556ba14b0629eea840bbb32fef35df6ef931e4d1e01d44a2c7ed60dc1171'),
    'verify-additive-factorwise-3': (0, '16bc02640055d19440eeae2cae136c8079c57fec3f541827e9fa87c5fc1b2b10'),
    'verify-additive-linear-6-2': (0, '03b1754734e9d3826fbe31aa013843287b3e554451b5438645850b9dab4aed10'),
    'verify-additive-linear-7-3': (0, 'c0310b93c59fe3d72fbb353657174734874306f60ac7a7384e6ed414547caa8e'),
    'verify-all-broken': (1, '9dd65176a7ed25ac9c2fcddbe45aa96c033c5af06c7d19fe3bf03566ae48c270'),
    'verify-all-factorwise-3': (0, 'b19c6e83ef56f2677884e4a5a973adae64ae81ff3246561e567ecdbbc97115ba'),
    'verify-all-linear-4-0': (0, '1cd6d7a889a01ddb755139ded50db99df48912104320bfe408fb96a6850eaec9'),
    'verify-all-linear-5-1': (0, '3a88bd04ddc0a94622f70330985e8ece32b65d2351444a204af07a59e2a8ba70'),
    'verify-all-linear-6-2': (0, '2d10a9ad791318c4dea1184bd83f8984eec96c7ad94d0427f51ab42a523048bf'),
    'verify-all-linear-7-3': (0, '1153cf313479b643f5b3f725677d7e90ae67dbc04a455aa5c3c4bcf457bcc5e5'),
    'verify-all-minus-trivial': (0, '06f17cfe3f73a34c30c7b32640845e10ba9b311ee3c85e47eae38f8ad42f32ce'),
    'verify-all-missing-point': (1, 'e555697e3156a91cb6acb24b0ac7cd285d064753735e72963730af5c6f70d211'),
    'verify-all-swap-bundle': (0, '4931d5a4dcd71e710ffad9160bdb598eac9fe58f9cbe3202593957e5dbe4520f'),
    'verify-all-swap-point': (0, 'f9dd24d5fc1b1bdbfa76ae9c8147c4d8dd90e5ea8eb742fc70bfa5c21cf899a5'),
    'verify-all-swap-p3': (0, '8400d6ac3b8dbd9627e47a9cdc7b26795f93a3471ad991240c1d1444d11eec58'),
    'verify-decomposable-p3': (0, 'e6680ae02ad23f3b88a4973aa25ba98ebadaec4de4ed5e0ad27ef6422ba09841'),
    'verify-ks-alpha': (0, '5b526247a3218fbf881dd6149016efc130826324081c585fb6f90620a45a6786'),
    'verify-ks-linear-5-2': (0, '0c6c6d6a0dcbbd90c0bdb2ede105767ed92f2e7033898137ab79542125ec79e5'),
    'verify-l2-max-m': (0, 'f02a7bd2d6414ca8bba1957773fa9ec58be1aed4fb123b550d9e1d926e23fcd5'),
    'verify-lmod2-linear-3-1': (0, 'd7faf0f4ddacdc0f48203a2051c2db18235799bee067e5c52526b20868894b75'),
    'verify-lmod2-swap-p2': (0, '6b4cac00f9effc2f19517bfb55986cd5a1770526f65d7bc298388d4c75968f1a'),
    'verify-trivial-normal': (0, '428fe3becdd4d337f275b11c8e0f85896afd7ac9fa8c6e3df5925337a4b76646'),
}


def run_command(argv):
    if isinstance(argv, str):
        argv = argv.split()
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def pytest_generate_tests(metafunc):
    if "name" in metafunc.fixturenames:
        metafunc.parametrize("name", sorted(COMMANDS))


def test_cli_output_is_pinned(name):
    assert run_command(COMMANDS[name]) == PINS[name]


def check():
    """Compare every command with its pin; print each mismatch and return
    the exit status, 1 if any command differs."""
    bad = [name for name in sorted(COMMANDS) if run_command(COMMANDS[name]) != PINS[name]]
    for name in bad:
        print("mismatch: %s" % name)
    print("%d of %d commands match their pins" % (len(COMMANDS) - len(bad), len(COMMANDS)))
    return 1 if bad else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description="print the pin table, or check the pins")
    ap.add_argument("--check", action="store_true", help="compare every command with PINS")
    if ap.parse_args().check:
        sys.exit(check())
    print("PINS = {")
    for name in sorted(COMMANDS):
        code, digest = run_command(COMMANDS[name])
        print("    %r: (%d, %r)," % (name, code, digest))
    print("}")
    sys.stdout.flush()
