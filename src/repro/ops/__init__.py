"""Operator library: DNN layer types as iteration spaces with cost hooks.

Every layer kind the four paper benchmarks need (plus DenseNet for the
Section V stress case) is defined here.  An operator is an `OpSpec`: a
named iteration space, input/output `TensorSpec` ports, the set of
contracted (reduction) dims, a forward FLOP count, and optional extra
internal-communication hooks (e.g. convolution halo exchange).
"""

from .base import OpSpec, TRAINING_FLOP_FACTOR_PARAM, TRAINING_FLOP_FACTOR_NOPARAM
from .dense import FullyConnected
from .conv import Conv2D
from .pool import Pool2D
from .norm import LocalResponseNorm, LayerNorm, BatchNorm
from .activation import Activation, Dropout
from .softmax import Softmax, SoftmaxCrossEntropy
from .embedding import Embedding
from .rnn import LSTMStack
from .attention import MultiheadAttention
from .elementwise import ElementwiseBinary
from .structural import Concat

__all__ = [
    "OpSpec",
    "TRAINING_FLOP_FACTOR_PARAM",
    "TRAINING_FLOP_FACTOR_NOPARAM",
    "FullyConnected",
    "Conv2D",
    "Pool2D",
    "LocalResponseNorm",
    "LayerNorm",
    "BatchNorm",
    "Activation",
    "Dropout",
    "Softmax",
    "SoftmaxCrossEntropy",
    "Embedding",
    "LSTMStack",
    "MultiheadAttention",
    "ElementwiseBinary",
    "Concat",
]
