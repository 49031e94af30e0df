import pytest

import wellcovered.certificate


@pytest.fixture
def probes(monkeypatch) -> list:
    """Every m the plan search probes, in order: each probe is one
    ``plan_at_m`` call."""
    probed = []
    real = wellcovered.certificate.plan_at_m

    def spy(target, m, eps):
        probed.append(m)
        return real(target, m, eps)

    monkeypatch.setattr(wellcovered.certificate, "plan_at_m", spy)
    return probed
