import copy
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from speclab.errors import ConfigError, DomainError, NumericError
from speclab.lm import (
    NGramLogitLM,
    TinyNeuralLM,
    Vocab,
    _scatter_rows,
    _stable_log_softmax_rows,
    accumulate_gradients,
    apply_update,
    ce_gradient,
    checkpoint_bytes,
    fkl_gradient,
    fkl_value,
    load_checkpoint,
    save_checkpoint,
)
from speclab.sampling import make_rng

from oracles import (
    gradient_vector,
    parameter_vector,
    reference_ce_gradient,
    reference_fkl_gradient,
    set_parameter_vector,
)

VOCAB8 = Vocab(size=8, bos_id=0, eos_id=1)


def finite_difference_grad(loss_fn, model, h=1e-5):
    """Independent oracle: central differences over the flat parameters."""
    theta = parameter_vector(model)
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = h
        set_parameter_vector(model, theta + bump)
        up = loss_fn(model)
        set_parameter_vector(model, theta - bump)
        down = loss_fn(model)
        grad[i] = (up - down) / (2 * h)
    set_parameter_vector(model, theta)
    return grad


def assert_grad_close(analytic, numeric, rel=1e-5, floor=1e-9):
    err = np.abs(analytic - numeric)
    tol = rel * np.maximum(np.abs(analytic), np.abs(numeric)) + floor
    assert np.all(err <= tol), f"max grad error {err.max():.3e}"


def test_vocab_validation():
    with pytest.raises(DomainError):
        Vocab(size=1, bos_id=0, eos_id=0)
    with pytest.raises(DomainError):
        Vocab(size=4, bos_id=0, eos_id=4)
    with pytest.raises(DomainError):
        Vocab(size=4, bos_id=2, eos_id=2)


@pytest.mark.parametrize("scale", [-1.0, float("nan"), float("inf")])
def test_ngram_create_rejects_a_bad_init_scale(scale):
    with pytest.raises(DomainError, match="init_scale must be finite and >= 0"):
        NGramLogitLM.create(VOCAB8, 1, init_scale=scale)


@pytest.mark.parametrize("name, size", [
    ("context_size", 0),
    ("d_emb", -1),
    ("d_emb", 0),
    ("d_hid", 0),
])
def test_neural_create_rejects_a_size_below_one(name, size):
    sizes = {"context_size": 2, "d_emb": 3, "d_hid": 4, name: size}
    with pytest.raises(DomainError, match=f"{name} must be >= 1, got {size}"):
        TinyNeuralLM.create(VOCAB8, **sizes, seed=0)


def test_ngram_unseen_context_scores_uniform():
    model = NGramLogitLM.create(VOCAB8, 1)
    assert np.array_equal(model.forward([3]), np.zeros(8))


def test_ngram_forward_is_pure():
    model = NGramLogitLM.create(VOCAB8, 2)
    model.table[...] = make_rng(1).normal(size=model.table.shape)
    a = model.forward([4, 5])
    b = model.forward([4, 5])
    assert np.array_equal(a, b)
    a[0] = 999.0  # mutating the returned row must not touch the model
    assert model.forward([4, 5])[0] == b[0]


def test_ngram_short_context_left_pads_with_bos():
    model = NGramLogitLM.create(VOCAB8, 3)
    model.table[model.context_index([0, 0, 5])] = np.arange(8.0)
    assert np.array_equal(model.forward([5]), np.arange(8.0))


def test_ngram_long_context_uses_last_n_tokens():
    model = NGramLogitLM.create(VOCAB8, 2)
    model.table[model.context_index([6, 7])] = np.full(8, 2.0)
    assert np.array_equal(model.forward([2, 3, 4, 6, 7]), np.full(8, 2.0))


def test_ngram_rejects_out_of_range_token():
    model = NGramLogitLM.create(VOCAB8, 1)
    with pytest.raises(DomainError):
        model.forward([8])
    with pytest.raises(DomainError):
        model.forward([-1])


def test_ngram_forward_batch_matches_forward():
    model = NGramLogitLM.create(VOCAB8, 2)
    model.table[...] = make_rng(2).normal(size=model.table.shape)
    contexts = [[1, 2], [3], [4, 5, 6], []]
    batch = model.forward_batch(contexts)
    for row, ctx in zip(batch, contexts):
        assert np.array_equal(row, model.forward(ctx))


@pytest.mark.parametrize("order", [1, 2, 3])
def test_ngram_context_rows_match_context_index(order):
    model = NGramLogitLM.create(VOCAB8, order)
    tokens = [2, 3, 4, 5, 6, 7, 2, 1]

    def rows(tokens, start):
        return model._forward_positions(tokens, start)[1].tolist()

    for start in range(len(tokens)):
        assert rows(tokens, start) == [model.context_index(tokens[:i])
                                       for i in range(start, len(tokens))]
    # Tokens outside every window are not read; the first bad one read is named.
    assert rows([99] + tokens, 1 + order) == rows(tokens, order)
    with pytest.raises(DomainError, match="token id 9 outside vocab of size 8"):
        rows([2, 9, 3, 12, 4], 2)


def test_neural_zero_weights_output_equals_bias():
    model = TinyNeuralLM.create(VOCAB8, context_size=2, d_emb=3, d_hid=4, seed=0)
    for name in ("embedding", "w1", "w2"):
        getattr(model, name)[...] = 0.0
    model.b2[...] = np.arange(8.0)
    assert np.allclose(model.forward([2, 3]), np.arange(8.0))
    assert np.allclose(model.forward([6]), np.arange(8.0))


def test_neural_init_is_seeded_and_bounded():
    a = TinyNeuralLM.create(VOCAB8, seed=5)
    b = TinyNeuralLM.create(VOCAB8, seed=5)
    c = TinyNeuralLM.create(VOCAB8, seed=6)
    assert np.array_equal(a.w1, b.w1)
    assert not np.array_equal(a.w1, c.w1)
    assert np.all(np.abs(a.embedding) <= 0.1)
    assert np.all(a.b1 == 0.0) and np.all(a.b2 == 0.0)


def test_neural_forward_batch_matches_forward():
    contexts = [[1, 2, 3], [4], [5, 6], []] + make_rng(4).integers(0, 8, size=(40, 3)).tolist()
    # The second shape is the canonical draft's, where a matrix product
    # over the whole batch rounds differently from the per-context one.
    for d_emb, d_hid in ((4, 5), (16, 64)):
        model = TinyNeuralLM.create(VOCAB8, context_size=3, d_emb=d_emb, d_hid=d_hid, seed=3)
        batch = model.forward_batch(contexts)
        for row, ctx in zip(batch, contexts):
            assert np.array_equal(row, model.forward(ctx))


def test_ce_loss_uniform_logits_is_log_vocab():
    vocab4 = Vocab(size=4, bos_id=0, eos_id=1)
    model = NGramLogitLM.create(vocab4, 1)
    loss, grads = ce_gradient(model, [2], 2)
    assert abs(loss - math.log(4.0)) < 1e-12
    (g,) = grads.values()
    assert np.allclose(g, [0.25, 0.25, -0.75, 0.25], atol=1e-12)


def test_ce_gradient_two_token_closed_form():
    vocab2 = Vocab(size=2, bos_id=0, eos_id=1)
    model = NGramLogitLM.create(vocab2, 1)
    _, grads = ce_gradient(model, [0], 0)
    (g,) = grads.values()
    assert np.allclose(g, [-0.5, 0.5], atol=1e-12)


def test_fkl_zero_when_distributions_match():
    p = np.array([0.2, 0.3, 0.5])
    assert fkl_value(p, p) == pytest.approx(0.0, abs=1e-12)


def test_fkl_known_value_and_zero_teacher_mass():
    # teacher (1, 0) vs uniform student: 1 * log(1 / 0.5) = log 2.
    assert fkl_value(np.array([1.0, 0.0]), np.array([0.5, 0.5])) == pytest.approx(math.log(2))


def test_fkl_stays_finite_when_student_starves_a_token():
    vocab2 = Vocab(size=2, bos_id=0, eos_id=1)
    model = NGramLogitLM.create(vocab2, 1)
    model.table[0] = np.array([800.0, 0.0])  # student prob underflows to 0
    div, grads = fkl_gradient(model, [0], np.array([0.5, 0.5]))
    assert np.isfinite(div)
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_log_softmax_rows_match_scalar_max_reference_bit_for_bit():
    # ce_gradient and fkl_gradient take one row, _ce_step_rows and the
    # distill pair steps a batch; all must agree with this 1-D formula.
    def one_row(logits):
        m = logits.max()
        lse = m + np.log(np.exp(logits - m).sum())
        return logits - lse, lse

    rng = make_rng(8)
    for width in (2, 5, 32, 100):
        batch = rng.normal(0, 4, size=(5000, width))
        log_p, lse = _stable_log_softmax_rows(batch)
        ref = [one_row(row) for row in batch]
        alone = [_stable_log_softmax_rows(row) for row in batch]
        assert np.array_equal(log_p, np.array([r[0] for r in ref]))
        assert np.array_equal(lse[:, 0], np.array([r[1] for r in ref]))
        assert np.array_equal(log_p, np.array([a[0] for a in alone]))
        assert np.array_equal(lse, np.array([a[1] for a in alone]))


@pytest.mark.parametrize("at_shape", [(40,), (8, 5)])
def test_scatter_rows_bit_equals_a_two_dimensional_add_at(at_shape):
    # Rows hit many times, by parts of mixed magnitude and signed zeros, so
    # that any other order of addition, or a start other than the
    # buffer's +0.0, would show in the bits.
    rng = make_rng(13)
    width = 7
    at = rng.integers(0, 6, size=at_shape)
    parts = rng.normal(size=at_shape + (width,)) * rng.choice([1e-12, 1.0, 1e12], size=at_shape
                                                               + (1,))
    parts[rng.random(parts.shape) < 0.2] = -0.0
    want = np.zeros((9, width))
    np.add.at(want, at, parts)
    got = np.zeros((9, width))
    _scatter_rows(got, at, parts)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", ["ngram", "neural"])
def test_ce_gradient_matches_finite_differences(family):
    vocab5 = Vocab(size=5, bos_id=0, eos_id=1)
    rng = make_rng(11 if family == "ngram" else 12)
    for trial in range(25):
        if family == "ngram":
            model = NGramLogitLM.create(vocab5, 1)
            model.table[...] = rng.normal(0, 2, size=model.table.shape)
        else:
            model = TinyNeuralLM.create(vocab5, context_size=2, d_emb=3, d_hid=4, seed=trial)
        context = [int(rng.integers(0, 5)), int(rng.integers(0, 5))]
        target = int(rng.integers(0, 5))
        _, grads = ce_gradient(model, context, target)
        numeric = finite_difference_grad(lambda m: ce_gradient(m, context, target)[0], model)
        assert_grad_close(gradient_vector(model, grads), numeric)


@pytest.mark.parametrize("family", ["ngram", "neural"])
def test_fkl_gradient_matches_finite_differences(family):
    vocab5 = Vocab(size=5, bos_id=0, eos_id=1)
    rng = make_rng(21 if family == "ngram" else 22)
    for trial in range(25):
        if family == "ngram":
            model = NGramLogitLM.create(vocab5, 1)
            model.table[...] = rng.normal(0, 2, size=model.table.shape)
        else:
            model = TinyNeuralLM.create(vocab5, context_size=2, d_emb=3, d_hid=4, seed=100 + trial)
        context = [int(rng.integers(0, 5))]
        teacher = rng.dirichlet(np.ones(5))
        _, grads = fkl_gradient(model, context, teacher)
        numeric = finite_difference_grad(lambda m: fkl_gradient(m, context, teacher)[0], model)
        assert_grad_close(gradient_vector(model, grads), numeric)


def test_apply_update_moves_one_ngram_row():
    model = NGramLogitLM.create(VOCAB8, 1)
    g = np.zeros(8)
    g[3] = 2.0
    apply_update(model, {5: g}, lr=0.1)
    expect = np.zeros((8, 8))
    expect[5, 3] = -0.2
    assert np.allclose(model.table, expect)


def test_apply_update_zero_lr_is_identity():
    model = TinyNeuralLM.create(VOCAB8, seed=1)
    before = parameter_vector(model)
    _, grads = ce_gradient(model, [2, 3], 4)
    apply_update(model, grads, lr=0.0)
    assert np.array_equal(parameter_vector(model), before)


def test_apply_update_rejects_non_finite_gradient():
    model = NGramLogitLM.create(VOCAB8, 1)
    with pytest.raises(NumericError, match="row 2"):
        apply_update(model, {2: np.array([np.nan] * 8)}, lr=0.1)
    # The first bad row in dict order is named, and no row moves.
    grads = {4: np.ones(8), 6: np.array([np.inf] * 8), 2: np.array([np.nan] * 8)}
    with pytest.raises(NumericError, match="row 6$"):
        apply_update(model, grads, lr=0.1)
    assert not model.table.any()
    neural = TinyNeuralLM.create(VOCAB8, seed=0)
    bad = {"w2": np.full_like(neural.w2, np.inf)}
    with pytest.raises(NumericError, match="w2"):
        apply_update(neural, bad, lr=0.1)


def test_apply_update_moves_no_neural_parameter_before_a_bad_gradient():
    model = TinyNeuralLM.create(VOCAB8, context_size=2, d_emb=3, d_hid=4, seed=2)
    _, grads = ce_gradient(model, [2, 3], 4)
    grads["w2"] = grads["w2"].copy()
    grads["w2"][1, 2] = np.nan
    before = checkpoint_bytes(model)
    with pytest.raises(NumericError, match="parameter 'w2'"):
        apply_update(model, grads, lr=0.1)
    assert checkpoint_bytes(model) == before


def kernel_view_models(seed):
    """Models of both families, orders and context sizes 1-3, saturated ones included."""
    for n in (1, 2, 3):
        yield NGramLogitLM.create(VOCAB8, n, init_scale=1.5, init_seed=seed + n)
        # Logits this spread starve most tokens below FKL_PROB_FLOOR.
        yield NGramLogitLM.create(VOCAB8, n, init_scale=60.0, init_seed=seed + n)
        yield TinyNeuralLM.create(VOCAB8, context_size=n, d_emb=3, d_hid=5, seed=seed + n)
        saturated = TinyNeuralLM.create(VOCAB8, context_size=n, d_emb=3, d_hid=5, seed=seed + n)
        saturated.w1 *= 4000.0  # most tanh units at exactly +-1
        yield saturated


def gradient_outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return f"DomainError: {exc}"


def assert_same_gradient(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert list(got[1]) == list(want[1])
    for key, g in want[1].items():
        assert np.array_equal(got[1][key], g), key


def test_gradient_views_equal_the_per_position_references():
    # ce_gradient and fkl_gradient are one position of the batched kernel;
    # the references are the per-position formulas, written out by hand.
    rng = make_rng(61)
    saturated = 0
    for model in kernel_view_models(7):
        if isinstance(model, TinyNeuralLM):
            h = np.tanh(model.embedding[[2] * model.context_size].ravel() @ model.w1)
            saturated += bool(np.any(np.abs(h) == 1.0))
        for _ in range(40):
            context = rng.integers(0, 8, size=int(rng.integers(0, 5))).tolist()
            target = int(rng.integers(0, 8))
            teacher = rng.dirichlet(np.full(8, 0.5))
            teacher[rng.random(8) < 0.3] = 0.0
            teacher /= teacher.sum() if teacher.sum() > 0 else 1.0
            assert_same_gradient(gradient_outcome(ce_gradient, model, context, target),
                                 gradient_outcome(reference_ce_gradient, model, context, target))
            assert_same_gradient(gradient_outcome(fkl_gradient, model, context, teacher),
                                 gradient_outcome(reference_fkl_gradient, model, context, teacher))
    assert saturated >= 3


@pytest.mark.parametrize("bad", [8, -1, 2**63, -(2**63) - 1, 2**64])
def test_gradient_views_raise_the_reference_errors(bad):
    rng = make_rng(62)
    teacher = rng.dirichlet(np.ones(8))
    cases = [([2, 3], bad), ([bad], 4), ([bad, 3], 4), ([2, bad, 3], 9), ([bad, 2, 3, 4], 5),
             ([], bad)]
    for model in kernel_view_models(9):
        for context, target in cases:
            want = gradient_outcome(reference_ce_gradient, model, context, target)
            assert_same_gradient(gradient_outcome(ce_gradient, model, context, target), want)
            want = gradient_outcome(reference_fkl_gradient, model, context, teacher)
            assert_same_gradient(gradient_outcome(fkl_gradient, model, context, teacher), want)


def test_sgd_on_repeated_example_drives_loss_down():
    model = NGramLogitLM.create(VOCAB8, 1)
    first, _ = ce_gradient(model, [4], 6)
    for _ in range(200):
        _, grads = ce_gradient(model, [4], 6)
        apply_update(model, grads, lr=0.5)
    last, _ = ce_gradient(model, [4], 6)
    assert last < 0.05 < first


def test_accumulate_gradients_sums_row_entries():
    total = {}
    accumulate_gradients(total, {1: np.ones(4)})
    accumulate_gradients(total, {1: np.ones(4), 2: np.ones(4)}, scale=0.5)
    assert np.allclose(total[1], 1.5)
    assert np.allclose(total[2], 0.5)


def test_parameter_vector_round_trip():
    for model in (
        NGramLogitLM.create(VOCAB8, 2),
        TinyNeuralLM.create(VOCAB8, context_size=2, d_emb=3, d_hid=4, seed=9),
    ):
        vec = parameter_vector(model)
        vec2 = vec + 0.25
        set_parameter_vector(model, vec2)
        assert np.array_equal(parameter_vector(model), vec2)
        with pytest.raises(DomainError):
            set_parameter_vector(model, vec2[:-1])


@pytest.mark.parametrize("family", ["ngram", "neural"])
def test_checkpoint_round_trip_is_bit_exact(tmp_path, family):
    if family == "ngram":
        model = NGramLogitLM.create(VOCAB8, 2)
        model.table[...] = make_rng(31).normal(size=model.table.shape)
    else:
        model = TinyNeuralLM.create(VOCAB8, seed=31)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    context = [3, 4, 5]
    assert np.array_equal(loaded.forward(context), model.forward(context))
    assert checkpoint_bytes(loaded) == checkpoint_bytes(model)
    save_checkpoint(model, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def test_checkpoint_load_decodes_each_array_once_into_writable_memory(tmp_path):
    model = NGramLogitLM.create(Vocab(size=32, bos_id=0, eos_id=1), 3)  # an 8 MiB table
    model.table[...] = make_rng(31).normal(size=model.table.shape)
    path = tmp_path / "order3.ckpt"
    save_checkpoint(model, path)
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The JSON parse holds the file's bytes and its text at once; decoding
    # then holds the text and the table, with no decoded copy of the text.
    assert peak < 2 * path.stat().st_size + 2**20
    assert np.array_equal(loaded.table, model.table)
    neural = TinyNeuralLM.create(VOCAB8, seed=31)
    save_checkpoint(neural, tmp_path / "neural.ckpt")
    params = [getattr(load_checkpoint(tmp_path / "neural.ckpt"), n)
              for n in TinyNeuralLM.PARAM_NAMES]
    for arr in [loaded.table, *params]:
        assert arr.flags.owndata and arr.flags.writeable


def test_checkpoint_rejects_bad_files(tmp_path):
    model = NGramLogitLM.create(VOCAB8, 1)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    doc = path.read_text().replace('"version":1', '"version":99')
    bad = tmp_path / "bad.ckpt"
    bad.write_text(doc)
    with pytest.raises(ConfigError, match="version"):
        load_checkpoint(bad)
    trash = tmp_path / "trash.ckpt"
    trash.write_text("not json at all{")
    with pytest.raises(ConfigError):
        load_checkpoint(trash)
    with pytest.raises(ConfigError):
        load_checkpoint(tmp_path / "missing.ckpt")


@pytest.mark.parametrize("family, keys", [
    ("ngram", ("vocab",)), ("ngram", ("vocab", "eos_id")), ("ngram", ("family",)),
    ("ngram", ("hyper",)), ("ngram", ("hyper", "order")), ("ngram", ("params",)),
    ("ngram", ("params", "table")), ("ngram", ("params", "table", "dtype")),
    ("neural", ("hyper", "d_hid")), ("neural", ("params", "w2")),
    ("neural", ("params", "b1", "data")),
])
def test_checkpoint_missing_key_raises_config_error_naming_it(tmp_path, family, keys):
    model = NGramLogitLM.create(VOCAB8, 2) if family == "ngram" else TinyNeuralLM.create(VOCAB8)
    doc = json.loads(checkpoint_bytes(model))
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    del parent[keys[-1]]
    path = tmp_path / "model.ckpt"
    path.write_text(json.dumps(doc))
    named = re.escape(f"checkpoint {path} has no {'.'.join(keys)}")
    with pytest.raises(ConfigError, match=named + "$"):
        load_checkpoint(path)


@pytest.mark.parametrize("text", ["[1, 2]", '"speclab-model"', "null"])
def test_checkpoint_that_is_not_a_json_object_raises_config_error(tmp_path, text):
    path = tmp_path / "model.ckpt"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(f"not a model checkpoint: {path}")):
        load_checkpoint(path)


def test_checkpoint_preserves_training_behaviour():
    model = TinyNeuralLM.create(VOCAB8, context_size=2, d_emb=3, d_hid=4, seed=17)
    clone = copy.deepcopy(model)
    for step in range(5):
        _, grads = ce_gradient(model, [2, step % 8], (step + 3) % 8)
        apply_update(model, grads, lr=0.2)
        _, grads2 = ce_gradient(clone, [2, step % 8], (step + 3) % 8)
        apply_update(clone, grads2, lr=0.2)
    assert checkpoint_bytes(model) == checkpoint_bytes(clone)


def neural_checkpoint(tmp_path, **params):
    model = TinyNeuralLM.create(VOCAB8, context_size=2, d_emb=3, d_hid=4, seed=5)
    for name, value in params.items():
        setattr(model, name, value)
    path = tmp_path / "neural.ckpt"
    save_checkpoint(model, path)
    return path


@pytest.mark.parametrize(
    "name, shape",
    [("embedding", (9, 3)), ("w1", (4, 4)), ("b1", (5,)), ("w2", (4, 7)), ("b2", (8, 1))],
)
def test_checkpoint_rejects_neural_shapes_that_disagree_with_hyper(tmp_path, name, shape):
    path = neural_checkpoint(tmp_path, **{name: np.zeros(shape)})
    with pytest.raises(ConfigError, match=f"checkpoint {name} shape"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_rejects_non_finite_parameters(tmp_path, value):
    ngram = NGramLogitLM.create(VOCAB8, 2)
    ngram.table[17, 3] = value
    save_checkpoint(ngram, tmp_path / "ngram.ckpt")
    with pytest.raises(ConfigError, match="checkpoint table has non-finite values"):
        load_checkpoint(tmp_path / "ngram.ckpt")
    for name in TinyNeuralLM.PARAM_NAMES:
        model = TinyNeuralLM.create(VOCAB8, context_size=2, d_emb=3, d_hid=4, seed=5)
        getattr(model, name).flat[-1] = value
        path = neural_checkpoint(tmp_path, **{name: getattr(model, name)})
        with pytest.raises(ConfigError, match=f"checkpoint {name} has non-finite values"):
            load_checkpoint(path)
