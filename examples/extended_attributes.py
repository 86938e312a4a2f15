#!/usr/bin/env python
"""Extending the Table I attribute set (Section II-B).

The paper notes "more attributes can be conveniently added to further
improve malware classification performance."  This example measures that
claim: it trains the same DGCNN twice — once on the 11 Table I
attributes, once with four extra channels (in-degree, mnemonic entropy,
unique-mnemonic count, operand count) — and compares validation scores.
The attribute layout is a value: the extraction pipeline extracts it and
the model records it, so a saved model classifies with the layout it was
trained on.

Run:  python examples/extended_attributes.py [--total 120] [--epochs 15]
"""

import argparse

from repro.core import Magic, ModelConfig
from repro.datasets import MSKCFG_FAMILIES, MalwareDataset, generate_mskcfg_listings
from repro.features import DEFAULT_ATTRIBUTES, EXTENDED_ATTRIBUTES, AcfgPipeline
from repro.train import TrainingConfig


def train_once(listings, layout, epochs, seed, label):
    report = AcfgPipeline(layout=layout).extract_from_texts(listings)
    dataset = MalwareDataset(acfgs=report.acfgs, family_names=list(MSKCFG_FAMILIES))
    train, test = dataset.stratified_split(0.2, seed=seed)
    config = ModelConfig(
        num_attributes=len(layout),
        num_classes=dataset.num_classes,
        pooling="adaptive",
        graph_conv_sizes=(32, 32, 32, 32),
        amp_grid=(3, 3),
        conv2d_channels=16,
        hidden_size=64,
        dropout=0.1,
        seed=seed,
    )
    magic = Magic(config, dataset.family_names, layout=layout)
    history = magic.fit(
        train.acfgs, test.acfgs,
        TrainingConfig(epochs=epochs, batch_size=10,
                       learning_rate=3e-3, seed=seed),
    )
    report = magic.evaluate(test.acfgs)
    print(f"{label:28s} channels={len(layout):2d} "
          f"accuracy={report.accuracy:.3f} "
          f"macro_f1={report.macro_f1:.3f} "
          f"best_val_loss={history.best_validation_loss:.4f}")
    return report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--total", type=int, default=120)
    parser.add_argument("--epochs", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    listings = generate_mskcfg_listings(total=args.total, seed=args.seed,
                                        minimum_per_family=8)

    print(f"Baseline attribute set: {len(DEFAULT_ATTRIBUTES)} channels (Table I)\n")
    baseline = train_once(listings, DEFAULT_ATTRIBUTES, args.epochs, args.seed,
                          "Table I attributes")

    added = EXTENDED_ATTRIBUTES[len(DEFAULT_ATTRIBUTES):]
    print(f"\nExtended with: {', '.join(added)}\n")
    extended = train_once(listings, EXTENDED_ATTRIBUTES, args.epochs, args.seed,
                          "Table I + extended")

    delta = extended.macro_f1 - baseline.macro_f1
    print(f"\nMacro-F1 change from the 4 extra channels: {delta:+.3f}")
    print("(Exact effect depends on corpus scale and seed; the point is "
          "that one layout value widens extraction, training and the "
          "saved model alike.)")


if __name__ == "__main__":
    main()
