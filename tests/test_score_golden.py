"""`veloscore score` output is a byte-for-byte contract.

Each file `score` writes, and its stdout, is pinned by its 16-byte BLAKE2b
digest as the dense-history replay first wrote it.  The checkpoint replay
must reproduce every byte.
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

DIGEST = "5c0afc5345b5b7351d4e98da3ed2fa6c"  # the stream digest does not depend on flags
GOLDEN = {
    "auto": ((), {
        "snapshots.tsv": "5df2e2609975390be13d043ccc83a04c",
        "velocity_final.tsv": "d07e9c695c6e8a257d10ec58d37cc01a",
        "run_config_score.txt": "0df73bdfa39894fe5d521636e941daed",
        "stream_digest.ndjson": DIGEST,
        "stdout": "993b539728302344f95fb1db4b7555a8",
    }),
    "ln_mass": (("--zeta", "0.01", "--mass-mode", "ln_followers"), {
        "snapshots.tsv": "1d7b269a53a8c5172a37f57debe64599",
        "velocity_final.tsv": "30707b840ad94f4d652ba808e6f0a0aa",
        "run_config_score.txt": "c33b13eca89e45244e41b3a43d7de672",
        "stream_digest.ndjson": DIGEST,
        "stdout": "3c4e96b0de34bcf6043ddb1a7c0aae5b",
    }),
    "retweets": (("--force-source", "retweets", "--default-mass", "2"), {
        "snapshots.tsv": "41dd2f0993a2bb97c70f598ae41c562b",
        "velocity_final.tsv": "0fb2c25568ea7146de5fc222e221226d",
        "run_config_score.txt": "f31bcdc0848c0341497546548c8a1784",
        "stream_digest.ndjson": DIGEST,
        "stdout": "459ee2b9bce17227197100ec53c797dd",
    }),
    "frictionless": (("--zeta", "0"), {
        "snapshots.tsv": "6cd93b5e33b58525717aade34a6420ab",
        "velocity_final.tsv": "e2c43e1135a771ee92f645a954288091",
        "run_config_score.txt": "4de4a3dc6661f15d69d2325489421dc9",
        "stream_digest.ndjson": DIGEST,
        "stdout": "2bd71416660665de95117a8e7de62afa",
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
