from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
# ten times the suite's examples; CI runs tests/test_core.py,
# tests/test_placement.py, tests/test_simulator.py, tests/test_exec_graph.py
# and tests/test_operators.py under it
settings.register_profile("ci", settings.get_profile("suite"), max_examples=1000)
settings.load_profile("suite")
