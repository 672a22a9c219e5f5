"""Bundled synthetic appliance corpus.

Stands in for a measured dataset. Readings are hourly average draws, so
each appliance is modeled as a truncated normal: duty cycling washes out
over an hour and leaves a smooth unimodal distribution. Specs are scaled so
a home's appliances together draw roughly 60-65% of the class meter rating
in a typical hour, with 95th-percentile draws summing a little below it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .consumption import MANIFEST_NAME, ApplianceSamples

CORPUS_SEED = 20240811
SAMPLES_PER_APPLIANCE = 3000

# (name, mean watts, stdev watts) per home class.
APPLIANCE_SPECS: dict[str, list[tuple[str, float, float]]] = {
    "A": [
        ("ceiling_fan", 60.0, 12.0),
        ("led_lights", 26.0, 5.0),
        ("refrigerator", 95.0, 20.0),
        ("television", 68.0, 14.0),
        ("water_pump", 38.0, 9.0),
        ("phone_charger", 8.0, 2.0),
        ("standing_fan", 28.0, 6.0),
    ],
    "B": [
        ("ceiling_fans", 66.0, 13.0),
        ("tube_lights", 33.0, 7.0),
        ("refrigerator", 86.0, 17.0),
        ("television", 53.0, 11.0),
        ("water_pump", 41.0, 9.0),
        ("washing_machine", 45.0, 11.0),
        ("computer", 41.0, 8.0),
        ("air_cooler", 62.0, 12.0),
        ("phone_charger", 8.0, 2.0),
        ("misc_plug", 29.0, 7.0),
    ],
    "C": [
        ("ceiling_fans", 80.0, 16.0),
        ("lighting", 42.0, 9.0),
        ("refrigerator", 110.0, 22.0),
        ("freezer", 58.0, 12.0),
        ("television", 55.0, 11.0),
        ("water_pump", 46.0, 10.0),
        ("washing_machine", 44.0, 11.0),
        ("computer", 40.0, 8.0),
        ("air_cooler", 70.0, 14.0),
        ("microwave", 12.0, 3.0),
        ("iron", 30.0, 8.0),
        ("phone_charger", 9.0, 2.0),
        ("misc_plug", 38.0, 9.0),
    ],
}


def synthetic_samples() -> dict[str, list[ApplianceSamples]]:
    """Generate the corpus in memory, deterministically from CORPUS_SEED."""
    rng = np.random.default_rng(CORPUS_SEED)
    corpus: dict[str, list[ApplianceSamples]] = {}
    for label in sorted(APPLIANCE_SPECS):
        appliances = []
        for name, mean, sd in APPLIANCE_SPECS[label]:
            values = rng.normal(mean, sd, SAMPLES_PER_APPLIANCE)
            np.clip(values, 0.0, None, out=values)
            appliances.append(ApplianceSamples(name, values))
        corpus[label] = appliances
    return corpus


def write_synthetic_corpus(root: Path | str) -> Path:
    """Write the corpus in the documented file format; returns the root."""
    root = Path(root)
    for label, appliances in synthetic_samples().items():
        class_dir = root / f"class_{label.lower()}"
        class_dir.mkdir(parents=True, exist_ok=True)
        names = []
        for app in appliances:
            fname = f"{app.appliance_name}.txt"
            names.append(fname)
            body = "\n".join(f"{v:.3f}" for v in app.samples)
            (class_dir / fname).write_text(
                f"appliance,{app.appliance_name}\n{body}\n"
            )
        (class_dir / MANIFEST_NAME).write_text(
            f"class,{label}\n" + "\n".join(names) + "\n"
        )
    return root
