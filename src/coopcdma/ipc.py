"""Adaptive joint estimation under individual (per-user) power constraints.

JPAIS-IPC runs the JPAIS-GPC recursions on one block per user, each under
its own budget. The names below are the per-user block's entry points.
"""

from .gpc import channel_update, power_update, waveforms_from_channel

user_channel_update = channel_update
user_power_update = power_update
user_waveforms_from_channel = waveforms_from_channel
