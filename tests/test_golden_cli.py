"""Golden sha256 digests of every artifact the CLI writes under ``--no-timing``.

One small run of every command (corpus; distill and decode with both
draft families; a one-cell sweep with traces; a compose over two decode
temperatures and two seeds; report) must reproduce these files byte for
byte. A change that claims to keep outputs identical is checked here.

Floating-point results may differ between numpy versions, so digests
are keyed by ``numpy.__version__``. On a version with no digests the
test fails and names it: record that version's digests from a trusted
commit rather than skipping.
"""

import hashlib
import shutil

import numpy as np
import pytest

from speclab.cli import main
from speclab.lm import FAMILY_NEURAL, FAMILY_NGRAM

CONFIG = """\
corpus.vocab_size = 12
corpus.order = 1
corpus.concentration = 0.7
corpus.n_prompts = 8
corpus.prompt_len = 4
corpus.seed = 3
corpus.pretrain_budget = 200000
models.draft_init_scale = 1.0
models.draft_d_emb = 8
models.draft_d_hid = 16
kd.steps = 150
kd.data_repeats = 1
kd.gen_max_len = 16
decode.max_new_tokens = 16
decode.runs = 2
sweep.kd_taus = 1.0
sweep.decode_taus = 0.5
sweep.seeds = 1
sweep.traces = true
compose.tau_set = 1.0,0.8
compose.decode_taus = 0.5,1.0
compose.seeds = 1,2
"""

GOLDEN = {
    "2.4.6": {
        "neural/decode_stats.txt":
            "e5436beba9074e3679e32f6f2f106e3b436dfd1253ffbcbd4f5a894283c38e60",
        "neural/draft.ckpt":
            "f7f001e4a03477c615ceb4f9186f27b5047570fd0e1b3af193149f50ad223e31",
        "neural/kd_dataset.txt":
            "f32109d815a2bd7848a9fe23d9e43ef7e4fc1e3390db519dce642967ff6b71d9",
        "neural/prompts_in.txt":
            "92151b4f89e473d3e2466aa92ffb18fbc1e9db7fe5339ebe0e22a560cd38a223",
        "neural/teacher.ckpt":
            "62a11a229c2d844ae678efbf4118d5bf2208f6ff16a6c54ff076198de0a1b434",
        "neural/traces/decode_traces.txt":
            "9819538fe21acd942388b738792bb78a00bbd5d5bf2dbbcbfa73767fe201274f",
        "neural/train_log.csv":
            "b3943d831cf39d57cd65e734ad0a4d34f82e8f0687b67de523d196d7944ce334",
        "ngram/comparison.csv":
            "02f7993da4b5792648f7c0c12d95d25ad0eae2fa20ddd3f81f04f45ccc93f225",
        "ngram/corpus_meta.txt":
            "b9952ad84cac47283ce2a35c7a752b6a475c637eacb4697992fbbd31d7e89ce5",
        "ngram/decode_stats.txt":
            "a681e0791e28bc7a9c55e1374eeef12aa3d42914f5d6f2075ed2ca063fd8b0ae",
        "ngram/draft.ckpt":
            "ffb08fb6fca208256a01f6918f6d860c1d6db1c5c65b8fcf84113e3501b7c16a",
        "ngram/drafts/draft_offline_tau1.00.ckpt":
            "ffd63538edcf777f076fb61c64e24214a89bd56f5e54ad5f840265559003fda9",
        "ngram/ground_truth.ckpt":
            "c2590bf09bb2890be8809cea8afb6edba07a606eed41879f1f704288713a3122",
        "ngram/kd_dataset.txt":
            "f32109d815a2bd7848a9fe23d9e43ef7e4fc1e3390db519dce642967ff6b71d9",
        "ngram/prompts_in.txt":
            "92151b4f89e473d3e2466aa92ffb18fbc1e9db7fe5339ebe0e22a560cd38a223",
        "ngram/report.txt":
            "7b7faf06d833d17d547b972142d763294318277561880170e0805748ecf2b2d8",
        "ngram/sweep.csv":
            "2574aef57fdc6824ff6e30ca3557cf8c2e63fa6a27b5738db41bec7e9d897953",
        "ngram/teacher.ckpt":
            "62a11a229c2d844ae678efbf4118d5bf2208f6ff16a6c54ff076198de0a1b434",
        "ngram/traces/decode_traces.txt":
            "f21c7485d465eb93806fcfcbb4c0bfc7ef9de7f25e9eaa7b8ce12a04490e2fde",
        "ngram/traces/sweep_kd1.00_dec0.50_seed1.txt":
            "3eac789eb12f2b7a8e5c059fb03d346a24dfe5198827566edf207f2c644b6c0b",
        "ngram/train_log.csv":
            "56b8aa47aa601ea2ff6c91e4d2d9b86f30d2e9fb021a90d42b004825a8277957",
    },
}


def _digests(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_cli_artifacts_match_golden_digests(tmp_path, monkeypatch):
    out = tmp_path / "out"
    configs = {}
    for name, family in (("ngram", FAMILY_NGRAM), ("neural", FAMILY_NEURAL)):
        configs[name] = tmp_path / f"{name}.cfg"
        configs[name].write_text(
            CONFIG + f"models.draft_family = {family}\nio.output_dir = {out / name}\n"
        )
    ngram, neural = configs["ngram"], configs["neural"]
    assert main(["corpus", "--config", str(ngram)]) == 0
    (out / "neural").mkdir()
    for name in ("teacher.ckpt", "prompts_in.txt"):
        shutil.copy(out / "ngram" / name, out / "neural" / name)
    for cfg in (ngram, neural):
        assert main(["distill", "--config", str(cfg)]) == 0
        assert main(["decode", "--config", str(cfg), "--no-timing"]) == 0
    assert main(["sweep", "--config", str(ngram), "--no-timing"]) == 0
    assert main(["compose", "--config", str(ngram), "--no-timing"]) == 0
    # A relative path keeps the tmp directory out of the report's header.
    monkeypatch.chdir(out / "ngram")
    assert main(["report", "sweep.csv", "--out", "report.txt"]) == 0

    digests = _digests(out)
    version = np.__version__
    if version not in GOLDEN:
        pytest.fail(
            f"no golden CLI digests for numpy {version} (recorded: {', '.join(GOLDEN)}); "
            f"digests from this run: {digests}"
        )
    assert digests == GOLDEN[version]
