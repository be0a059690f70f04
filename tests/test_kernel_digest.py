"""Same-seed digest regression for the kernel.

Pins the Fig-5-shaped autoscale scenario (``tests.golden.fig5_scenario``)
bit-for-bit: any change to event ordering, RNG consumption, clock
arithmetic, or pool accounting shows up as a digest mismatch here before
it silently skews every experiment.  The digest must also be *identical*
with the runtime sanitizer armed and disarmed — the checks may only
observe, never perturb.

If a kernel change is *intentionally* allowed to reorder events, update
``GOLDEN`` in the same commit and say why in the message.
"""

from repro.check import config as check_config
from tests.golden import autoscale_digest, digest_payload, run_fig5

GOLDEN = "958f80c00bfe4503b5275826641a6242dc88fb68bb62f11379c5481dc49a8842"


class TestSameSeedDigest:
    def test_digest_matches_golden_disarmed(self):
        with check_config.override(False):
            assert autoscale_digest(run_fig5()) == GOLDEN

    def test_digest_matches_golden_armed(self):
        with check_config.override(True):
            assert autoscale_digest(run_fig5()) == GOLDEN

    def test_control_counts_perfbench_reads(self):
        # perfbench's control.scale_actions and control.soft_reallocs count
        # these kinds in controller.events.
        with check_config.override(False):
            kinds = [e.kind for e in run_fig5().controller.events]
        counts = {k: kinds.count(k) for k in
                  ("scale_out_started", "scale_in_started", "reallocate")}
        assert counts == {"scale_out_started": 0, "scale_in_started": 0,
                          "reallocate": 1}

    def test_payload_covers_the_observable_surface(self):
        with check_config.override(False):
            payload = digest_payload(run_fig5())
        assert set(payload) == {"request_log", "failed", "vm_seconds",
                                "timelines"}
        assert set(payload["timelines"]) == {"app", "db"}
        assert payload["request_log"], "scenario must serve traffic"
