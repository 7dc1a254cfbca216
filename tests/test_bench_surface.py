"""The names the repo benchmark (``benchmarks/e2e``, frozen by
BENCHMARK.json) reaches into ``src/`` for.

``layers.Tracer.install`` wraps every ``SPAN_POINTS`` attribute with
``getattr``/``setattr`` and ``workloads`` builds flight-mode telemetry
from ``repro.campaign.pool`` constants; a refactor that drops one of
those names breaks the benchmark without touching any other tier-1
test.  This fails in seconds instead of in the benchmark gate.
"""

from benchmarks.e2e import layers, workloads
from repro.telemetry import Telemetry


def test_every_span_point_resolves():
    for owner, attr, name in layers.SPAN_POINTS:
        assert callable(getattr(owner, attr)), (owner, attr, name)


def test_flight_telemetry_is_the_class_the_tracer_patches():
    recorder = Telemetry(trace=False,
                         flight=workloads.FLIGHT_CAPACITY).recorder
    assert isinstance(recorder, layers.FlightRecorder)
    assert callable(recorder.dump)
