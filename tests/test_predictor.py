import numpy as np
import pytest

from oracles import central_difference
from uc_screen import (
    Dataset,
    EmptyDataset,
    InsufficientData,
    MlpModel,
    TrainConfig,
    knn_screen,
    mlp_forward,
    mlp_input_grad,
    mlp_train,
)
from uc_screen.errors import DimensionError
from uc_screen.predictor import _value_and_grad


def tiny_model():
    """[2, 2, 1] network with identity normalization, computable by hand."""
    return MlpModel(
        layer_dims=(2, 2, 1),
        weights=[np.array([[1.0, -1.0], [0.5, 0.5]]),
                 np.array([[2.0, 3.0]])],
        biases=[np.array([0.0, -1.0]), np.array([0.25])],
        input_mean=np.zeros(2),
        input_std=np.ones(2),
        output_mean=0.0,
        output_std=1.0,
    )


def random_model(rng, n_in=None):
    dims = [n_in or int(rng.integers(2, 6))]
    for _ in range(int(rng.integers(1, 4))):
        dims.append(int(rng.integers(2, 8)))
    dims.append(1)
    weights = [rng.normal(size=(dims[k + 1], dims[k])) for k in range(len(dims) - 1)]
    biases = [rng.normal(size=dims[k + 1]) for k in range(len(dims) - 1)]
    return MlpModel(layer_dims=tuple(dims), weights=weights, biases=biases,
                    input_mean=rng.normal(size=dims[0]),
                    input_std=rng.uniform(0.5, 2.0, size=dims[0]),
                    output_mean=float(rng.normal()),
                    output_std=float(rng.uniform(0.5, 3.0)))


def test_forward_by_hand():
    model = tiny_model()
    # hidden: relu([x0-x1, 0.5x0+0.5x1-1]); out: 2h0+3h1+0.25
    assert mlp_forward(model, [3.0, 1.0]) == pytest.approx(2 * 2.0 + 3 * 1.0 + 0.25)
    assert mlp_forward(model, [1.0, 3.0]) == pytest.approx(0.0 + 3 * 1.0 + 0.25)
    assert mlp_forward(model, [0.0, 0.0]) == pytest.approx(0.25)


def test_forward_respects_normalization():
    model = tiny_model()
    model.input_mean = np.array([1.0, 2.0])
    model.input_std = np.array([2.0, 4.0])
    model.output_mean = 10.0
    model.output_std = 5.0
    raw = np.array([3.0, 6.0])
    h = (raw - model.input_mean) / model.input_std     # (1.0, 1.0)
    expected = 10.0 + 5.0 * (2 * 0.0 + 3 * 0.0 + 0.25)
    del h  # hidden is relu([0, 0]) for this input
    assert mlp_forward(model, raw) == pytest.approx(expected)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(9000)
    checked = 0
    for _ in range(40):
        model = random_model(rng)
        x = rng.normal(scale=2.0, size=model.n_inputs)
        # stay away from ReLU kinks where the derivative jumps
        h = (x - model.input_mean) / model.input_std
        near_kink = False
        for k, (W, b) in enumerate(zip(model.weights, model.biases)):
            z = W @ h + b
            if k < len(model.weights) - 1:
                if np.abs(z).min() < 1e-3:
                    near_kink = True
                h = np.maximum(z, 0.0)
        if near_kink:
            continue
        grad = mlp_input_grad(model, x)
        fd = central_difference(lambda v: mlp_forward(model, v), x)
        np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-7)
        checked += 1
    assert checked >= 20


def test_batched_value_and_grad_match_single_loads():
    rng = np.random.default_rng(123)
    linear = MlpModel(layer_dims=(3, 1), weights=[rng.normal(size=(1, 3))],
                      biases=[np.array([0.5])], input_mean=np.zeros(3),
                      input_std=np.full(3, 2.0), output_mean=1.0,
                      output_std=3.0)
    for model in [linear] + [random_model(rng) for _ in range(20)]:
        X = rng.normal(scale=2.0, size=(7, model.n_inputs))
        values, grads = _value_and_grad(model, X)
        assert values.shape == (7,) and grads.shape == X.shape
        for x, value, grad in zip(X, values, grads):
            np.testing.assert_allclose(value, mlp_forward(model, x),
                                       rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(grad, mlp_input_grad(model, x),
                                       rtol=1e-12, atol=1e-12)


def test_gradient_shape_and_input_check():
    model = tiny_model()
    assert mlp_input_grad(model, [3.0, 1.0]).shape == (2,)
    with pytest.raises(DimensionError):
        mlp_forward(model, [1.0, 2.0, 3.0])


def test_model_json_round_trip():
    rng = np.random.default_rng(5)
    model = random_model(rng)
    again = MlpModel.from_json(model.to_json())
    assert again.layer_dims == model.layer_dims
    for a, b in zip(again.weights, model.weights):
        np.testing.assert_array_equal(a, b)
    x = rng.normal(size=model.n_inputs)
    assert mlp_forward(again, x) == mlp_forward(model, x)


def test_model_save_load(tmp_path):
    model = tiny_model()
    model.save(tmp_path / "model.json")
    again = MlpModel.load(tmp_path / "model.json")
    assert mlp_forward(again, [3.0, 1.0]) == mlp_forward(model, [3.0, 1.0])


@pytest.mark.parametrize("bad", [
    dict(layer_dims=(2, 2), weights=None, biases=None),     # no scalar output
    dict(layer_dims=(2, 3, 1), weights="mismatch", biases=None),
])
def test_model_validation(bad):
    weights = [np.zeros((2, 2)), np.zeros((1, 2))]
    biases = [np.zeros(2), np.zeros(1)]
    if bad["weights"] == "mismatch":
        weights = [np.zeros((3, 2)), np.zeros((1, 2))]      # (1,2) vs dim 3
        biases = [np.zeros(3), np.zeros(1)]
    with pytest.raises(DimensionError):
        MlpModel(layer_dims=bad["layer_dims"], weights=weights, biases=biases,
                 input_mean=np.zeros(2), input_std=np.ones(2),
                 output_mean=0.0, output_std=1.0)


def linear_dataset(rng, n=400, dim=4):
    loads = rng.uniform(0.0, 10.0, size=(n, dim))
    costs = loads @ np.array([3.0, 1.0, 2.0, 0.5][:dim]) + 20.0
    binding = np.zeros((n, 2), dtype=bool)
    return Dataset(loads=loads, costs=costs, binding=binding)


def test_training_fits_a_linear_map():
    rng = np.random.default_rng(31)
    data = linear_dataset(rng)
    model, report = mlp_train(data, TrainConfig(seed=0))
    assert report.val_relative_error < 0.02
    assert report.epochs == len(report.history)
    assert report.final_train_loss >= 0.0
    x = rng.uniform(0.0, 10.0, size=4)
    truth = float(x @ np.array([3.0, 1.0, 2.0, 0.5]) + 20.0)
    assert mlp_forward(model, x) == pytest.approx(truth, rel=0.05)


def test_training_is_deterministic():
    rng = np.random.default_rng(31)
    data = linear_dataset(rng, n=150)
    cfg = TrainConfig(seed=7, max_epochs=40)
    model_a, rep_a = mlp_train(data, cfg)
    model_b, rep_b = mlp_train(data, cfg)
    assert rep_a.epochs == rep_b.epochs
    for wa, wb in zip(model_a.weights, model_b.weights):
        assert wa.tobytes() == wb.tobytes()


def test_training_handles_constant_feature():
    # a zero-variance column must not produce NaNs (std is forced to 1)
    rng = np.random.default_rng(3)
    loads = rng.uniform(0.0, 5.0, size=(120, 3))
    loads[:, 1] = 4.2
    costs = loads[:, 0] * 2.0 + loads[:, 2]
    data = Dataset(loads=loads, costs=costs,
                   binding=np.zeros((120, 2), dtype=bool))
    model, report = mlp_train(data, TrainConfig(seed=1, max_epochs=60))
    assert np.isfinite(report.final_train_loss)
    assert np.isfinite(mlp_forward(model, loads[0]))
    assert model.input_std[1] == 1.0


def test_early_stopping_restores_best_weights():
    rng = np.random.default_rng(12)
    # pure noise: validation loss plateaus almost immediately
    loads = rng.uniform(0.0, 1.0, size=(200, 3))
    costs = np.abs(rng.normal(size=200))
    data = Dataset(loads=loads, costs=costs,
                   binding=np.zeros((200, 2), dtype=bool))
    cfg = TrainConfig(seed=2, max_epochs=500, patience=5)
    model, report = mlp_train(data, cfg)
    assert report.epochs < 500
    val_losses = [v for _, v in report.history]
    best_epoch = int(np.argmin(val_losses))
    assert report.epochs <= best_epoch + 1 + 5 * 2  # stopped near the best


def test_dataset_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(77)
    data = Dataset(loads=rng.uniform(size=(5, 3)),
                   costs=rng.uniform(size=5),
                   binding=rng.random(size=(5, 4)) > 0.5)
    path = tmp_path / "samples.jsonl"
    data.save_jsonl(path)
    again = Dataset.load_jsonl(path)
    np.testing.assert_allclose(again.loads, data.loads)
    np.testing.assert_allclose(again.costs, data.costs)
    np.testing.assert_array_equal(again.binding, data.binding)


def test_empty_dataset_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(EmptyDataset):
        Dataset.load_jsonl(path)


def test_dataset_shape_checks():
    with pytest.raises(DimensionError):
        Dataset(loads=np.zeros(5), costs=np.zeros(5),
                binding=np.zeros((5, 2), dtype=bool))
    with pytest.raises(DimensionError):
        Dataset(loads=np.zeros((5, 2)), costs=np.zeros(4),
                binding=np.zeros((5, 2), dtype=bool))


# --- nearest-neighbour baseline --------------------------------------------

def knn_dataset():
    loads = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    binding = np.array([
        [True, False, False, False],
        [False, True, False, False],
        [False, True, False, False],
        [False, False, True, False],
    ])
    return Dataset(loads=loads, costs=np.zeros(4), binding=binding)


def test_knn_union_rule():
    data = knn_dataset()
    kept = knn_screen(data, [0.1, 0.0], k=2)
    # neighbours are samples 0 and 1: union of their binding sides
    np.testing.assert_array_equal(kept, [True, True, False, False])


def test_knn_distance_ties_break_by_index():
    data = knn_dataset()
    # query equidistant from samples 1 and 2; k=1 must pick sample 1
    kept = knn_screen(data, [1.5, 0.0], k=1)
    np.testing.assert_array_equal(kept, data.binding[1])


def test_knn_insufficient_data():
    data = knn_dataset()
    with pytest.raises(InsufficientData):
        knn_screen(data, [0.0, 0.0], k=5)
    with pytest.raises(ValueError):
        knn_screen(data, [0.0, 0.0], k=0)


def test_knn_union_kept_sets_grow_with_k():
    rng = np.random.default_rng(60)
    loads = rng.uniform(0.0, 1.0, size=(40, 3))
    binding = rng.random(size=(40, 6)) > 0.7
    data = Dataset(loads=loads, costs=np.zeros(40), binding=binding)
    for _ in range(25):
        query = rng.uniform(0.0, 1.0, size=3)
        kept5 = knn_screen(data, query, k=5)
        kept10 = knn_screen(data, query, k=10)
        assert np.all(kept10 >= kept5), "union rule must be monotone in k"
