"""RetryPolicy backoff schedule and validation."""
import pytest

from repro.resilience.retry import (
    HaloMessageError,
    MessageDelayedError,
    RetryExhaustedError,
    RetryPolicy,
    RetryStats,
)


class TestRetryPolicy:
    def test_backoff_is_exponential(self):
        p = RetryPolicy(backoff_base=1e-3, backoff_factor=2.0, backoff_max=1.0)
        assert p.backoff(0) == pytest.approx(1e-3)
        assert p.backoff(1) == pytest.approx(2e-3)
        assert p.backoff(3) == pytest.approx(8e-3)

    def test_backoff_caps_at_max(self):
        p = RetryPolicy(backoff_base=1e-3, backoff_factor=10.0,
                        backoff_max=5e-3)
        assert p.backoff(10) == 5e-3

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1e-3)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)


class TestRetryStats:
    def test_recovery_time_sums_backoff_and_waits(self):
        s = RetryStats()
        s.backoff_s = 0.25
        s.wait_s = 0.75
        assert s.recovery_s == 1.0
        assert "0 retransmits" in s.report()

    def test_error_hierarchy(self):
        err = MessageDelayedError("late", src=0, dst=1, tag="t", delay=0.01)
        assert isinstance(err, HaloMessageError)
        assert err.delay == 0.01
        exc = RetryExhaustedError("gave up", attempts=4, last_error=err)
        assert exc.attempts == 4
        assert exc.last_error is err
