import dataclasses
import json

import numpy as np
import pytest

from cao.optim import StepRecord
from cao.runlog import RunLogWriter


def reference_line(rec: StepRecord) -> str:
    """A step line as a deep copy through ``dataclasses.asdict`` writes it."""

    def pyify(value):
        if isinstance(value, dict):
            return {k: pyify(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [pyify(v) for v in value]
        if hasattr(value, "item"):
            return value.item()
        return value

    payload = {"type": "step"}
    payload.update(pyify(dataclasses.asdict(rec)))
    if payload.get("eval_loss") is None:
        payload.pop("eval_loss", None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


RECORDS = {
    "eval-loss": StepRecord(step=3, epoch=1, loss=0.25, grad_norm=1.5, update_norm=0.1,
                            eval_loss=0.3125, wall=1.25e-05),
    "no-eval-loss": StepRecord(step=0, epoch=0, loss=2.0, grad_norm=3.0, update_norm=1.0,
                               wall=3e-06),
    "k5-eigvals": StepRecord(step=40, epoch=2, loss=1.0 / 3.0, grad_norm=0.7,
                             update_norm=0.02, refreshed=True,
                             eigvals=tuple(float(x) for x in
                                           np.array([9.5, 4.0, 1e-3, -0.25, -7.125])),
                             clamped=True, wall=4.5e-4),
    "divergence": StepRecord(step=17, epoch=0, loss=float("inf"),
                             grad_norm=float("inf"), update_norm=0.0),
    "failed-refresh": StepRecord(step=9, epoch=0, loss=0.5, grad_norm=float("inf"),
                                 update_norm=float("nan"), refresh_failed=True,
                                 eigvals=(2.0,), eval_loss=0.0),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_write_record_matches_deep_copy_reference(tmp_path, name):
    rec = RECORDS[name]
    path = tmp_path / "run.log"
    with RunLogWriter(path) as writer:
        writer.write_record(rec)
    assert path.read_text() == reference_line(rec)
    # the record is left as it was
    assert "eval_loss" in vars(rec)
