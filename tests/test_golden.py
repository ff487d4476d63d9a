"""Pinned stdout of the CLI: every README example, the catalog and the builtin monads.

Each entry maps a command line to the sha256 of its stdout.  Commands that read
files run in a directory holding `fib.json` and `my_ring.json` (written by
`catalog export`), `module.json` (the regular NIM-rep of fib), and
`broken_ring.json` and `broken_nimrep.json`, whose violation lists pin the
order in which the validators itemize them.  The Perron dimension printed by
`--fpdim` is checked by value, or rounded to nine digits in the composite
sweep, since its last digits depend on the LAPACK build; the rest of those
reports is pinned.
"""

import hashlib
import json

import pytest

import divalg as d
from divalg.cli import run

from util import BROKEN_NIMREP

GOLDEN = {
    # README examples
    "catalog list": "60ac759c946589e8a8ea60eb56b070b32da09c0f3fba8ab5808c7f8db680dcd4",
    "catalog export --name fib --out fib.json": "f8970d4b9c772f1d748f77d7ba79894546e1631c0af30e6b37d94882a90e2193",
    "ring validate --builtin ising": "924b874fca774ecd249ada0d7908188a96215e6d9be3c3e8e52bd24af816cb4d",
    "ring validate my_ring.json": "1f307dbaf69653061c5cf18cafe757cc410896b630615e5960e30063de93d121",
    "ring classify --builtin fib --object tau": "384d80c9687f5c67e4264cfebd054c0f65977cc833d9f9fc2ddeae3c14a3a65f",
    "nimrep validate --ring fib.json --nimrep module.json --check-dual": "35be6dd97276ac9a88747712a23afacf490976239ac9017da11f31afde0269fc",
    "nimrep classify --builtin fib --regular --object 0,1": "57fdc9476a359f6c5513f805aac525d00961f621c56d1082ede541a3253971a6",
    "monad check maybe --max-size 7": "0a4dc169141e181484c31684f2b213cd0d8975cf1b17e839df2dacbed98104a6",
    "monad check exception --marks 2 --max-size 4": "6328541166de7963c251d82d57f51e8a316e9d67223e18f07ed7e834b79016d5",
    "monad check freevec2 --max-size 3": "d38bc1d3854bb189239811d787f45563f4e502b4d00e851923cbafe03e4ca06b",
    "monad strength maybe --max-size 3": "fc9dedeb04f8b36183d0dbcd8c8fa80a333b5610e99698d7bf3ef758987ad840",
    "--format markdown ring classify --builtin fib --object tau": "2aff98a12acca078a6d61c839c3a81fcedf312185d2fe6b5f724e4a604a808ee",
    "--format markdown catalog list": "c852ada9bf885d4300bad92680a35478ff9b4328f4cc310df08d909fc8fb607c",
    # every catalog entry
    "ring validate --builtin fib": "7eecebdcea86dd41355108de4650106e13173a8d0bc2b9f8692969b768a7456b",
    "ring validate --builtin rep_s3": "6b7eadd072d31e8eedd9322039c6ee506a638a977b957eddb369745e5fd8d462",
    "ring validate --builtin vec_cyclic(1)": "ff39c0df232db6cbc91b87e1cbcd97ed500c43424ec62b24506fe3a7735cbda4",
    "ring validate --builtin vec_cyclic(2)": "e89cf966bf9584143d103616ae9a4a48a68fb180223e1de1ad56bdb0e1a6f234",
    "ring validate --builtin vec_cyclic(3)": "59ee0460524aae145ef36029a99d90bf0f65e4266d3d0f1d14ceece28367d53e",
    "ring validate --builtin vec_cyclic(4)": "192ebd3584471963751b58200ab9e014f94cb61d950eaedb0f2eb274feabe914",
    "ring validate --builtin vec_cyclic(5)": "160b4c0c61b75161920349edaebbdbaff2ece6ce823d4269cf33812ec8076b75",
    "ring validate --builtin vec_cyclic(6)": "8b38501a90c3b8e7bc1939b9fcc07be6a6dc9d4acd15a49fc4ae8d20ca3a3854",
    "ring validate --builtin vec_cyclic(7)": "dac7d4f1aee98bc8aca34d40c62bec6376926140d11630b1efca74335198a147",
    "ring validate --builtin vec_cyclic(8)": "ab5db35432e0c7e2220903a1d63958e2e5e28d01cbd951f48322a36d212d49e9",
    "ring validate --builtin vec_cyclic(9)": "f8c16868cc17229ebd44d5fa5b9f8e8b704530b6cca85e4a7a38f7cfa4794402",
    "ring validate --builtin vec_cyclic(10)": "8acdabe0b3a7f30d7e38416acf0f54daac07bcdc245df44315d679cee7cd43c1",
    "ring validate --builtin vec_cyclic(11)": "32bd490e31ced8c5628c75de5a6727ae154085ee6f4b2e5a9d9ab0cac3cfe5a0",
    "ring validate --builtin vec_cyclic(12)": "5308bae09776b26e0f70c6729a5c2a21d25c3b3625324a0aa0c0359a41e47f64",
    "ring validate --builtin matrix_multifusion(1)": "eff44d368151a2e69c975a3af187bb2ee27a72fa5ee7b5d91ba851da32745fb0",
    "ring validate --builtin matrix_multifusion(2)": "8e8c8a6a3357c7c08b7dcac2c96c1e88f034f958cdab953224f4fc67953d5822",
    "ring validate --builtin matrix_multifusion(3)": "3e9bc7f761af76063deae3a28f2daec89d661da17f76f1a897fca7f49dfcedc2",
    # every builtin monad; freevec2 strength at size 4 reads 658 140 strength_iii points in about a second, and at
    # size 5 it needs a 2^32-entry mu table
    "monad check identity --max-size 7": "ed70cc470d90bcf034f83ba0be3c4d55e4430af435ef698768ebf8484a84230c",
    "monad strength identity --max-size 3": "44adf98e90337db0bacf3eac5ce91ddde650d8a2b3dc3301485be323e1604325",
    "monad strength exception --marks 2 --max-size 3": "9b2a048cc207b2e038b5c05c9e6937b9bc1206450bbb9711b2e8acd24afb3dae",
    "monad strength freevec2 --max-size 2": "dca04bcd740af3d72bcd30d496bd9341ce86b245ceb8961c3d43f6d5441c1a1c",
    "monad strength freevec2 --max-size 3": "d699e23435a5d51b080a9d4e9cbb960ec667e20b961457b28a7714c48c259372",
    "monad strength freevec2 --max-size 4": "8cebac4e6406c737a071e5cbe33551ba4ee70b699110a1bfce287a91d9bb2f36",
    # the strength size the benchmark's module-route runs, 2 358 theta requests at 225 distinct sizes
    "monad strength exception --marks 3 --max-size 8": "6c0e2cb048e8ead636901a912d2a972da9d7d05f9018a1cc0f16e70d76c55edc",
    # the largest bounds of each builtin monad that the benchmark's em-ladder runs
    "monad check maybe --max-size 8": "5ac2944cfe62c58e10a922ce682ac87cdd0012aa2390e3ada0157114bcec9716",
    "monad check exception --marks 2 --max-size 7": "66b328a9a2234accf93372387fff033adb41c8dae6a080bb9bfea48c77bd8859",
    "monad check exception --marks 3 --max-size 6": "78711adf490aaea4cf3486b4cb3e82ba5c68970a3b437138308ddcd9cdde76b9",
    "monad check freevec2 --max-size 4": "9bba922ab99d2fecccdbe1359b2ef8f2be755fc66e1115f6043eb88dae89a428",
    # carriers 5 to 7 have no freevec2 algebra and no candidate, so these bounds need no axiom table
    "monad check freevec2 --max-size 5": "2ca0d3ebe1d3167f997a63d59c4a82ff6eb0d016bb1856a0c03468dfd160a90c",
    "monad check freevec2 --max-size 7": "d871db8e406ff1e33ce369b8fca811f597a85dab9ea7dfb083b2b414c5396e99",
    # bounds past the reach of a carrier! walk over every relabeling
    "monad check maybe --max-size 10": "315233fa4a924ace9d9ecb3388441e04412646f8b3cd71f4e4d62e8828ab971a",
    "monad check exception --marks 2 --max-size 9": "030b57289775f7f23f948474060f6fb347d0c6042cb5f87ccb3b4e74f04dacdc",
    "monad check exception --marks 3 --max-size 8": "926aa14ec1574660cabaa5e3e57f22d2bee2db266cab1d8161bc19ab62d43057",
    # the regular NIM-rep of every catalog entry, all three module laws
    "nimrep validate --builtin fib --regular --check-dual": "13a597b41b2abec3ce8fb8b24a38d13ca1c61c2355db4d7c1b9e1f69fbbf2c1b",
    "nimrep validate --builtin ising --regular --check-dual": "0acff5c7c76d38b6511da0e8fc3920ffa000078019edb57f74ee2b5b6985d885",
    "nimrep validate --builtin rep_s3 --regular --check-dual": "7f544ef433c95e6f8497cc8455110062447b6e65db22f27649f3b73c4888c2d2",
    "nimrep validate --builtin vec_cyclic(1) --regular --check-dual": "b9da1b55bf4334b5776b19bd1d25d6509bbe31d0c58dc2a5c583d2e6f8ed2cef",
    "nimrep validate --builtin vec_cyclic(2) --regular --check-dual": "3d21fdbc16ae0217fb6b24b7bfe945c0da4197752cafccc923aaaefab88c6ec3",
    "nimrep validate --builtin vec_cyclic(3) --regular --check-dual": "e5c6fb106e5ae1c90d1ffea9ec9bc04f130880594e95a588cb9c17b3b33c3eca",
    "nimrep validate --builtin vec_cyclic(4) --regular --check-dual": "0abca6f719ec950606158300019681c89ad751dbe18e1a19dff996e890e0006d",
    "nimrep validate --builtin vec_cyclic(5) --regular --check-dual": "ab0497e1080ffebb66746dc7fe9879f6758efe4d60510a25444cc4317559f08d",
    "nimrep validate --builtin vec_cyclic(6) --regular --check-dual": "5184ba4dc728d4fd8a3844b67661868b59a4b7814212b44796b23a88811e7b3e",
    "nimrep validate --builtin vec_cyclic(7) --regular --check-dual": "4e8a8099aa54b7d95d223adab6b5207cdce6bb7409c6f5dbb5c37844c7e73675",
    "nimrep validate --builtin vec_cyclic(8) --regular --check-dual": "e549bb79fc1c05ed8c42c959c8246f6e456bd74ae0b1d1dd264da399a2721fa1",
    "nimrep validate --builtin vec_cyclic(9) --regular --check-dual": "60352f2f568dea4bbc65c8080620c5777e5f19f309d2f965f99aa4bd8478157d",
    "nimrep validate --builtin vec_cyclic(10) --regular --check-dual": "082b6b49f8f7502c4a65caed36b169932cce58937cbd169c8dffbc9acd099af1",
    "nimrep validate --builtin vec_cyclic(11) --regular --check-dual": "bb393d549116ee0c15a71309c69af5195031259cfaa5c52a76736fa3269ed1d4",
    "nimrep validate --builtin vec_cyclic(12) --regular --check-dual": "d739cf89f229f46ff99292bf2226faa577da9375875da3bdc038fc7237e4eea3",
    "nimrep validate --builtin matrix_multifusion(1) --regular --check-dual": "d6ae22e5089d45006dc9043cb421a2a622ed3ae7bcaa5b4981ac0207585cfe25",
    "nimrep validate --builtin matrix_multifusion(2) --regular --check-dual": "4953fe735655f8fa9e6667f32281198566a51461ce025a409870c36fb299104f",
    "nimrep validate --builtin matrix_multifusion(3) --regular --check-dual": "f6d9f250f545180704326db211fd88786b23cddc81a9ac69090c0302ca02fef3",
    # `nimrep classify` from a ring file through the regular NIM-rep, which takes the ring's validation
    "nimrep classify --ring fib.json --regular --object tau": "2e3c8cc344cedc48b90f6ee71721355921569b9def1a1256102fa08e5bd07a87",
}

# a rank-3 ring failing every axiom family; BROKEN_NIMREP is a NIM-rep of fib failing all three laws
BROKEN_RING = {
    "labels": ["1", "a", "b"],
    "unit": [1, 0, 0],
    "dual": [1, 2, 0],
    "fusion": [
        [[1, 0, 0], [0, 1, 0], [0, 1, 1]],
        [[0, 1, 0], [0, 0, 2], [1, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    ],
}

# commands that exit 1 with the itemized violations on stdout
GOLDEN_VIOLATIONS = {
    "ring validate broken_ring.json": "b9de81a270ecb0ee18ba6368482d83ca61ec0ce31e6515a4900ff5da1b239858",
    "nimrep validate --ring fib.json --nimrep broken_nimrep.json --check-dual": "ef50830d7d2b85fbf827793452e8a31e2bcd2431bdc4cba9b33592e1a4d7220c",
    # both `nimrep classify` sources: the regular NIM-rep reports the ring's violations, a file its own
    "nimrep classify --ring broken_ring.json --regular --object a": "08065e8a86424182caa3a6c2bd47ac60e55dfc40fa2974c2edd0fcff34e92a75",
    "nimrep classify --ring fib.json --nimrep broken_nimrep.json --object a": "d54c36417fb7aa8e71e177edacf4229001f80581d60f2381ae7ba427accce067",
}

# `catalog export --name <entry>` of every catalog entry to stdout, in `entries()` order, hashed as the
# concatenated stdout: the labels, unit, dual and whole fusion tensor of each builtin
EXPORT_SWEEP = "81bc4c5cd95d3528cd2e55c850ccbff071444ebc43e9cb93dcc7d2f82e14057e"

FPDIM_COMMAND = "ring classify --builtin rep_s3 --object V --side right --fpdim"
FPDIM_REST = "bf4309ca92bd57b50fd5b8d91e968802641f8ca3a4fbca605ff874c106ffc801"

# `ring classify --side left`, `--side right` and `nimrep classify --regular` on
# every label of every catalog entry, hashed as "<exit code>\n<stdout>" in order
CLASSIFY_SWEEP = "8eee27799dec8d8e21389a618dc4582269427a0776f5dad35744514b5edb8023"

# `ring classify --fpdim` on both sides, then `nimrep classify --regular`, on the unit
# vector and then the all-ones vector of each catalog entry, hashed as
# "<exit code>\n<stdout>" in order with the Perron dimension rounded to nine digits
COMPOSITE_SWEEPS = {
    "fib": "47e42b8c68e013f0a7af6f20add6c8c207ee78b76454edc1a9e3273cdaafb679",
    "ising": "1f3d12b364c44f9ee112b59969eef5e0460aa42f893f58b2fae073f83e15ac94",
    "rep_s3": "b416d94e93fc6aba409795a015f663df04d88016471f9369f95245a08db142e5",
    "vec_cyclic(1)": "9940002345cad1b6f7996e31ba8a4b4a22d05f47d48c74f67af796528ac1066a",
    "vec_cyclic(2)": "694467c7aa8e410e15052faab3650759a40f1128636dd98ccb96c47eec08f99f",
    "vec_cyclic(3)": "d042e8bd1de8cf041feca7866a14f4def500911755b92376809fad9a6f21ab78",
    "vec_cyclic(4)": "1e8681ab187cca1165ccac028779c5d3a3ab2810ba5c463c35d7ee896463340e",
    "vec_cyclic(5)": "863163c09cbefdf74e881554d191c51a572a371b50f65650bc65b9a300a3dcb5",
    "vec_cyclic(6)": "d8891f727f2a192decfed0a93b80593dec05cadbc23626f898ad05223f074f28",
    "vec_cyclic(7)": "65ed6ca7f22189e2f8e60e7202b75256c4856fb08c6b553ab782519909505092",
    "vec_cyclic(8)": "025b9dcb0921c74c2f1f5fe8ee79b9686b14a46ff6ee49dc916ecde613fe7bec",
    "vec_cyclic(9)": "b4479b963e4c57beeba371b764d0b14cf163bf3cb6816fc6a25a8d44df024edc",
    "vec_cyclic(10)": "eabe8d1f57cc21942a77c8fca770585ad032dcf4d92eceb905445c7ff51b7238",
    "vec_cyclic(11)": "70508e0a217599ee2706bfbcec10b8de6cd05fc0f8d15ebce734f8cba46d94fc",
    "vec_cyclic(12)": "7e1eb2ae6f03df32c526a712f95094ef5369908e38deb5e2d92e969eb8233423",
    "matrix_multifusion(1)": "1435141e3a55c1bedc4c4aa6304a820c0ddf1fa8de4afcf20628f2d14c89821f",
    "matrix_multifusion(2)": "ee1f2e86c9b78d3c8d4724e1c6f3ea880b28bcf8593318a7e5b7976cc2176993",
    "matrix_multifusion(3)": "a5a62a266806a10125cfbd2f59381ae872120b9c98dfea9d046395f76689ef9f",
}


def run_quiet(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture()
def fixture_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, path in (("fib", "fib.json"), ("rep_s3", "my_ring.json")):
        assert run_quiet(capsys, ["catalog", "export", "--name", name, "--out", path])[0] == 0
    module = d.regular_nimrep(d.builtin_ring("fib")).to_payload()
    for name, data in (("module", module), ("broken_ring", BROKEN_RING), ("broken_nimrep", BROKEN_NIMREP)):
        (tmp_path / f"{name}.json").write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")
    return tmp_path


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_stdout_digest(command, fixture_dir, capsys):
    code, out = run_quiet(capsys, command.split())
    assert code == 0
    assert sha256(out) == GOLDEN[command]


@pytest.mark.parametrize("command", sorted(GOLDEN_VIOLATIONS))
def test_violations_digest(command, fixture_dir, capsys):
    code, out = run_quiet(capsys, command.split())
    assert code == 1
    assert sha256(out) == GOLDEN_VIOLATIONS[command]


def test_fpdim_example(capsys):
    code, out = run_quiet(capsys, FPDIM_COMMAND.split())
    assert code == 0
    report = json.loads(out)
    assert abs(report["payload"].pop("fp_dimension") - 2.0) < 1e-12
    assert sha256(json.dumps(report, sort_keys=True, indent=2) + "\n") == FPDIM_REST


def test_export_sweep_digest(capsys):
    digest = hashlib.sha256()
    for entry in d.entries():
        code, out = run_quiet(capsys, ["catalog", "export", "--name", entry.name])
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == EXPORT_SWEEP


def test_classify_sweep_digest(capsys):
    digest = hashlib.sha256()
    for entry in d.entries():
        for label in entry.ring.labels:
            for argv in (
                ["ring", "classify", "--builtin", entry.name, "--object", label, "--side", "left"],
                ["ring", "classify", "--builtin", entry.name, "--object", label, "--side", "right"],
                ["nimrep", "classify", "--builtin", entry.name, "--regular", "--object", label],
            ):
                code, out = run_quiet(capsys, argv)
                digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == CLASSIFY_SWEEP


def _rounded_fpdim(out: str) -> str:
    """The report with its Perron dimension rounded to nine digits, re-dumped as the CLI dumps it."""
    report = json.loads(out)
    report["payload"]["fp_dimension"] = round(report["payload"]["fp_dimension"], 9)
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def test_composite_objects_digest(capsys):
    # the unit and the all-ones vector of every catalog entry reach the decomposable-unit
    # inverses and fp_dimension on composites, which the label sweep above does not
    digests = {}
    for entry in d.entries():
        digest = hashlib.sha256()
        for obj in (entry.ring.unit, [1] * entry.ring.rank):
            text = ",".join(str(int(v)) for v in obj)
            for side in ("left", "right"):
                argv = ["ring", "classify", "--builtin", entry.name, "--object", text, "--side", side, "--fpdim"]
                code, out = run_quiet(capsys, argv)
                digest.update(f"{code}\n{_rounded_fpdim(out)}".encode())
            code, out = run_quiet(capsys, ["nimrep", "classify", "--builtin", entry.name, "--regular", "--object", text])
            digest.update(f"{code}\n{out}".encode())
        digests[entry.name] = digest.hexdigest()
    assert digests == COMPOSITE_SWEEPS
