"""JPAIS-IPC's names for the JPAIS-GPC recursions, which it runs on a stack
of K one-user blocks, each under its own unit budget, in one call per symbol.
The harness calls them by these names only so that the benchmark's tracer
can time IPC apart from the joint ones."""

from .gpc import channel_update, power_update, waveforms_from_channel

user_channel_update = channel_update
user_power_update = power_update
user_waveforms_from_channel = waveforms_from_channel
