"""`veloscore score` output is a byte-for-byte contract.

Each file `score` writes, and its stdout, is pinned by its 16-byte BLAKE2b
digest.  The digests were first written by the dense-history replay, which
the checkpoint replay reproduced byte for byte; they were recorded again
when `synth` changed its follower draw (so `DATA` holds other edges and
events), after the unchanged `score` of the time wrote the same bytes on
the new data.
"""

import hashlib

import pytest

from veloscore.cli import EXIT_OK, main
from veloscore.synth import Burst, SynthConfig, generate

# 400 hours: the final hour (399) is not a week end, so it is its own checkpoint
DATA = SynthConfig(seed=17, users=80, hours=400, follows_per_user=6, url_count=30,
                   base_mention_rate=0.06, retweet_every=4,
                   bursts=(Burst("u00005", 170, 260, 2.5),))

FILES = ("snapshots.tsv", "velocity_final.tsv", "run_config_score.txt",
         "stream_digest.ndjson")

DIGEST = "5e7deec6f1d63c960b6316c9b59e418c"  # the stream digest does not depend on flags
GOLDEN = {
    "auto": ((), {
        "snapshots.tsv": "fcd93193db429142caa68c1cf3171fcf",
        "velocity_final.tsv": "da3166fbc7423e559c5de92d71d89622",
        "run_config_score.txt": "87c0c8b40119a54b8e354dc93b149d59",
        "stream_digest.ndjson": DIGEST,
        "stdout": "85d0d5fc530e05e872c6c9ef021a3d9e",
    }),
    "ln_mass": (("--zeta", "0.01", "--mass-mode", "ln_followers"), {
        "snapshots.tsv": "ce28976a4703a93b21a5f1b5b2ebea22",
        "velocity_final.tsv": "da4401aaf100157628d599b2f23a4f07",
        "run_config_score.txt": "c33b13eca89e45244e41b3a43d7de672",
        "stream_digest.ndjson": DIGEST,
        "stdout": "4ced7ba2ff3eb9411ce286e9ab4abb18",
    }),
    "retweets": (("--force-source", "retweets", "--default-mass", "2"), {
        "snapshots.tsv": "ec2b7364742de7ebdb9dd6f92fc5036e",
        "velocity_final.tsv": "0312a6c6d453a9a524ea92e987c355e5",
        "run_config_score.txt": "a1979b22c6e9b4bb13cbd1a86b1008bd",
        "stream_digest.ndjson": DIGEST,
        "stdout": "0d573c229fb831f976e38aaaeb31e54a",
    }),
    "frictionless": (("--zeta", "0"), {
        "snapshots.tsv": "b7e17ae8137b451a69c2c41778229e23",
        "velocity_final.tsv": "4c16804af98789c3c69bc3f3b5dd90e1",
        "run_config_score.txt": "4de4a3dc6661f15d69d2325489421dc9",
        "stream_digest.ndjson": DIGEST,
        "stdout": "e5ffea04c008eba8e2c305f3c41d14ac",
    }),
}


def blake(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    generate(DATA, root / "data")
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_score_golden_bytes(data_dir, monkeypatch, capsys, name):
    flags, digests = GOLDEN[name]
    monkeypatch.chdir(data_dir)  # relative paths keep run_config_score.txt portable
    capsys.readouterr()
    out = f"run_{name}"
    assert main(["score", "--events", "data/events.ndjson", "--edges", "data/edges.tsv",
                 "--out", out, *flags]) == EXIT_OK
    got = {f: blake((data_dir / out / f).read_bytes()) for f in FILES}
    got["stdout"] = blake(capsys.readouterr().out.encode("utf-8"))
    assert got == digests
