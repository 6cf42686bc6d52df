"""Test-only oracles and fixtures shared across the suite."""
