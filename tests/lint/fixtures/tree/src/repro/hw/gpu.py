"""Fixture: layering violations below the analytic backend."""

from ..utils.xp import xp_of
from ..analytic.device import device_model


def wg_time(device, cost):
    from repro.analytic import CommModel
    return xp_of(cost), device_model, CommModel


def task_time(device, cost):
    from .. import analytic
    from .memory import HbmModel
    return analytic, HbmModel
