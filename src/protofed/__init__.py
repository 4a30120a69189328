"""protofed: a deterministic simulator for prototype-based federated learning
under domain skew.

Clients upload per-class feature centroids alongside model weights; the
server blends them into generalized prototypes by distance reweighting with
an EMA across rounds, and clients regularize local training with a
prototype-contrastive term plus alignment to MixUp-augmented prototypes.
"""

__version__ = "0.1.0"
