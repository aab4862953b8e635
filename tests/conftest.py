import numpy as np
from hypothesis import settings

from tempbal.weight_store import LayerTensor, WeightSnapshot

# every property test replays the same examples on every run and leaves no
# example database behind; a test's own settings() sets only max_examples
settings.register_profile("tempbal", derandomize=True, database=None, deadline=None)
settings.load_profile("tempbal")


def random_snapshot(rng: np.random.Generator, max_layers: int = 4) -> WeightSnapshot:
    """Random mix of dense and conv layers with finite float64 values."""
    n_layers = int(rng.integers(1, max_layers + 1))
    layers = []
    for i in range(n_layers):
        if rng.random() < 0.5:
            dims = (int(rng.integers(1, 12)), int(rng.integers(1, 12)))
        else:
            dims = tuple(int(d) for d in rng.integers(1, 5, size=4))
        values = rng.normal(scale=10.0 ** rng.integers(-3, 4), size=dims)
        layers.append(LayerTensor(f"layer{i}", values))
    return WeightSnapshot(epoch=int(rng.integers(0, 1000)), layers=tuple(layers))
