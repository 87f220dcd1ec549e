"""Dense-interaction video re-identification, from the array math up.

The package is layered: ``tensor`` provides reverse-mode autodiff over numpy,
``imageops`` the image-shaped fused ops, and the model modules (encoder,
decoder, losses, metrics) build on those. ``harness`` and ``cli`` wire the
layers into training, evaluation and ablation runs over the synthetic corpus
in ``data``, and ``harness`` also writes the run's reports, the attention
dump among them; the model modules write no file.
"""

__version__ = "0.1.0"
