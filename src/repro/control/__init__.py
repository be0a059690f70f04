"""Controllers and actuators: DCM and the EC2-AutoScale baseline.

Both run the same "quick start / slow turn off" VM-level threshold policy;
DCM adds the second actuation level — model-driven soft-resource
re-allocation through the APP-agent.
"""

from repro.control.actuators import AppAgent, ControlEvent, VMAgent
from repro.control.base import BaseAutoScaleController
from repro.control.dcm import DCMController
from repro.control.ec2 import EC2AutoScaleController
from repro.control.predictive import PredictiveDCMController, TrendForecaster
from repro.control.static import StaticProvisioningController
from repro.control.policy import (
    SCALE_IN,
    SCALE_OUT,
    PolicyStateTracker,
    ScalingPolicy,
    TierScalingState,
)

__all__ = [
    "AppAgent",
    "BaseAutoScaleController",
    "ControlEvent",
    "DCMController",
    "EC2AutoScaleController",
    "PredictiveDCMController",
    "PolicyStateTracker",
    "SCALE_IN",
    "SCALE_OUT",
    "ScalingPolicy",
    "StaticProvisioningController",
    "TrendForecaster",
    "TierScalingState",
    "VMAgent",
]
