"""Model zoo: computation-graph builders for the paper's benchmarks.

The four evaluation benchmarks (Section IV) plus the DenseNet stress case
from the limitations discussion (Section V) and a small MLP used by the
examples and tests.  All builders return a validated `CompGraph` and take
the paper's default shapes as defaults (batch 128 for CNNs, 64 otherwise).
"""

from .builder import GraphBuilder
from .mlp import mlp
from .alexnet import alexnet
from .inception import inception_v3
from .rnnlm import rnnlm
from .transformer import transformer
from .densenet import densenet
from .vgg import vgg16

__all__ = [
    "GraphBuilder",
    "alexnet",
    "densenet",
    "inception_v3",
    "mlp",
    "rnnlm",
    "transformer",
    "vgg16",
]

#: The paper's benchmark suite, name -> builder of the default-size model.
BENCHMARKS = {
    "alexnet": alexnet,
    "inception_v3": inception_v3,
    "rnnlm": rnnlm,
    "transformer": transformer,
}
