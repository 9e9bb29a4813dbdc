import pytest

# The brute-force oracles check their own integrality with assert; rewriting
# them as pytest does test modules keeps those checks under python -O.
pytest.register_assert_rewrite("bruteforce")
