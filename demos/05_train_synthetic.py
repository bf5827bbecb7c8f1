"""Train the three-stream model end to end on the synthetic fall/walk
task and print the metrics table.

Run:  python3 demos/05_train_synthetic.py   (about half a minute)
"""
import numpy as np

from fallgcn import (
    Hyperparams,
    MaskingConfig,
    ModelConfig,
    ThreeStreamModel,
    builtin_layout,
    count_flops,
    count_parameters,
    evaluate,
    format_report,
    metrics,
    normalized_adjacency,
    train,
)
from fallgcn.synthetic import CLASS_NAMES, make_dataset

# 400 train / 100 test clips: falls descend at the root, walks oscillate.
train_clips, test_clips = make_dataset(n_per_class=250, seed=0)
print(f"{len(train_clips)} train / {len(test_clips)} test clips, "
      f"shape {train_clips[0].data.shape}")

layout = builtin_layout("stick9")
config = ModelConfig(
    dims=2, clip_len=32, joint_count=9, num_classes=2,
    channels=(16, 32), head_hidden=32,
    masking=MaskingConfig(p_joint=0.1, p_frame=0.1),
    layout_name=layout.name,
)
model = ThreeStreamModel(config, normalized_adjacency(layout))
print(f"model: {count_parameters(model)} parameters, "
      f"{count_flops(model):,} multiplies per clip")

hp = Hyperparams(learning_rate=0.01, momentum=0.9, batch_size=32, epochs=6, seed=0)
history = train(model, train_clips, test_clips, hp)
for rec in history:
    print(f"  epoch {rec.epoch}: train loss {rec.train_loss:.4f}, "
          f"val accuracy {rec.val_accuracy:.1f}%")

cm = evaluate(model, test_clips, class_names=CLASS_NAMES)
print("\nconfusion matrix (rows = truth):")
print(cm.counts)
print()
print(format_report(metrics(cm), "text"))

# The motion stream sees frame differences of the same clip; zeroing any
# one stream shifts the prediction, i.e. fusion is doing work. The pooled
# stream features are concatenated before head.fc1, so zeroing a stream's
# rows of fc1.weight ablates exactly that stream.
clip = test_clips[0].data
full = model.forward(clip).data
weight = model.head.fc1.weight.data
width = config.channels[1]
for i, name in enumerate(config.streams):
    rows = slice(i * width, (i + 1) * width)
    kept = weight[rows].copy()
    weight[rows] = 0.0
    ablated = model.forward(clip).data
    weight[rows] = kept
    kl = float(np.sum(full * (np.log(full) - np.log(ablated))))
    print(f"zeroing {name:>6} stream: KL(full || ablated) = {kl:.3e}")
