"""The benchmark's by-name bindings, run as ``perfbench/run.py --trace 1``
runs them: one traced ``desk_cli`` pass of the CLI chain.

The tracer wraps g2sf functions by module attribute and its counters read
their arguments by name, so renaming a probed function or a counted argument
(``write_tensor``'s ``array``, say) breaks only traced runs. This pass fails
first.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _g2sf_bindings():
    from g2sf import nn

    return {(name, attr): value
            for name, module in list(sys.modules.items())
            if module is not None and (name == "g2sf" or name.startswith("g2sf."))
            for attr, value in vars(module).items()
            if callable(value)} | {("g2sf.nn", "Adam.step"): vars(nn.Adam)["step"]}


def test_traced_desk_cli_pass(tmp_path):
    shape = workloads.PaperShape()
    workloads.desk_setup(workloads.DEFAULT_SEED, tmp_path, shape)
    state = workloads.desk_load(tmp_path, shape)
    before = _g2sf_bindings()
    tr = tracer.Tracer()
    with tracer.patched(tr):
        _, codes = workloads.desk_run(state, tr, 0)
    assert _g2sf_bindings() == before
    assert codes == {stage: 0 for stage in tracer.CLI_STAGES}
    metrics = tracer.layer_metrics(tr)
    for name in ("tensorio.write_calls", "synthesis.pool_cells", "trainer.epochs",
                 "losses.loss_grad_s"):
        assert metrics[name][0] > 0, name
