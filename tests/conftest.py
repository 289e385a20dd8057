import pytest
from hypothesis import settings

# Same examples on every run, so a property-test failure reproduces as is;
# every test keeps its own max_examples.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    label = getattr(item.function, "_criterion", None)
    if label:
        verdict = "PASS" if report.passed else "FAIL"
        print(f"\n[acceptance] {label}: {verdict}")
