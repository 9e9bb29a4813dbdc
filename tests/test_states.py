import json

import numpy as np
import pytest

from qutrit_invariants.states import (
    BipartiteState,
    apply_local,
    coordinate_action,
    from_coords,
    from_single_coords,
    ginibre,
    load_state,
    physicality,
    random_local_sl,
    random_local_unitary,
    random_state,
    save_state,
    SeedWords,
    to_coords,
    to_single_coords,
    trial_seed_words,
)
from qutrit_invariants.tensors import GELL_MANN


def test_maximally_mixed_coords():
    c = to_coords(np.eye(9) / 9, 3, 3)
    assert abs(c.trace_entry - 1.0 / 9.0) < 1e-15
    assert np.abs(c.r).max() < 1e-15
    assert np.abs(c.rbar).max() < 1e-15
    assert np.abs(c.R).max() < 1e-15


def test_trace_formula_oracle():
    # the einsum extraction must match the literal trace definition
    rng = np.random.default_rng(3)
    st = random_state(3, 3, rng)
    c = st.coords
    for a in range(8):
        direct = np.trace(st.rho @ np.kron(GELL_MANN[a], np.eye(3))).real / 6.0
        assert abs(c.r[a] - direct) < 1e-13
        direct = np.trace(st.rho @ np.kron(np.eye(3), GELL_MANN[a])).real / 6.0
        assert abs(c.rbar[a] - direct) < 1e-13
    for a in range(8):
        for b in range(8):
            direct = np.trace(st.rho @ np.kron(GELL_MANN[a], GELL_MANN[b])).real / 4.0
            assert abs(c.R[a, b] - direct) < 1e-13


def test_single_axis_component():
    eps = 0.01
    rho = (np.eye(9) + eps * np.kron(GELL_MANN[2], np.eye(3))) / 9.0
    c = to_coords(rho, 3, 3)
    assert abs(c.r[2] - eps / 9.0) < 1e-15
    mask = np.ones(8, bool)
    mask[2] = False
    assert np.abs(c.r[mask]).max() < 1e-15
    assert np.abs(c.rbar).max() < 1e-15
    assert np.abs(c.R).max() < 1e-15


def test_round_trips():
    rng = np.random.default_rng(11)
    for dims in [(3, 3), (2, 2)]:
        for _ in range(50):
            st = random_state(*dims, rng)
            assert np.abs(from_coords(st.coords) - st.rho).max() < 1e-12
        stack = random_state(*dims, rng, size=20)
        rebuilt = from_coords(stack.coords)
        assert rebuilt.shape == stack.rho.shape
        assert np.abs(rebuilt - stack.rho).max() < 1e-12
        for k in range(20):
            assert np.abs(rebuilt[k] - from_coords(stack[k].coords)).max() < 1e-12


def test_from_coords_checks_the_trailing_shape():
    c = to_coords(np.eye(9) / 9, 3, 3)
    with pytest.raises(ValueError):
        from_coords(type(c)(3, 3, np.zeros((5, 9, 8))))
    assert from_coords(type(c)(3, 3, np.zeros((2, 5, 9, 9)))).shape == (2, 5, 9, 9)


def test_from_coords_bell_projector():
    phi = np.zeros(9, dtype=complex)
    for i in range(3):
        phi[3 * i + i] = 1.0 / np.sqrt(3.0)
    proj = np.outer(phi, phi.conj())
    rebuilt = from_coords(to_coords(proj, 3, 3))
    assert np.abs(rebuilt - proj).max() < 1e-12
    eigs = np.linalg.eigvalsh(rebuilt)
    assert abs(eigs[-1] - 1.0) < 1e-12 and np.abs(eigs[:-1]).max() < 1e-12


def test_from_coords_hermitian_for_arbitrary_coordinates():
    rng = np.random.default_rng(5)
    c = to_coords(np.eye(9) / 9, 3, 3)
    ext = rng.standard_normal(c.ext.shape)
    arbitrary = type(c)(3, 3, ext)
    rho = from_coords(arbitrary)
    assert np.array_equal(rho, rho.conj().T)


def test_to_coords_rejects_non_hermitian():
    rho = np.eye(9, dtype=complex) / 9
    rho[0, 1] = 0.5
    with pytest.raises(ValueError):
        to_coords(rho, 3, 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dim", [2, 3])
def test_to_single_coords_refuses_what_to_coords_refuses(dim):
    H = np.eye(dim, dtype=complex) / dim
    for bad, match in ((np.eye(dim + 1), "expected a"), (np.ones(dim), "expected a")):
        with pytest.raises(ValueError, match=match):
            to_single_coords(bad, dim)
    stack = np.stack([H, H])
    for value, match in ((np.nan, "non-finite"), (np.inf, "non-finite"),
                         (-np.inf, "non-finite"), (0.5, "not Hermitian")):
        bad = stack.copy()
        bad[1, 0, 1] = value
        with pytest.raises(ValueError, match=match):
            to_single_coords(bad, dim)
        with pytest.raises(ValueError, match=match):
            to_single_coords(bad[1], dim)


def test_single_system_coords_round_trip():
    rng = np.random.default_rng(9)
    H = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    H = (H + H.conj().T) / 2
    v = to_single_coords(H, 3)
    assert np.abs(from_single_coords(v, 3) - H).max() < 1e-12
    assert abs(v[0] - np.trace(H).real / 3) < 1e-14


@pytest.mark.parametrize("dim", [2, 3])
def test_stacked_single_system_coords(dim):
    rng = np.random.default_rng(10)
    G = rng.standard_normal((4, 5, dim, dim)) + 1j * rng.standard_normal((4, 5, dim, dim))
    H = (G + G.conj().swapaxes(-1, -2)) / 2
    v = to_single_coords(H, dim)
    assert v.shape == (4, 5, dim * dim)
    rebuilt = from_single_coords(v, dim)
    assert np.abs(rebuilt - H).max() < 1e-12
    for i in range(4):
        for j in range(5):
            assert np.abs(v[i, j] - to_single_coords(H[i, j], dim)).max() < 1e-12
            assert np.abs(rebuilt[i, j] - from_single_coords(v[i, j], dim)).max() < 1e-12


def test_trace_entry_float_for_one_state_array_for_a_stack():
    stack = random_state(3, 3, 2, size=4)
    assert type(stack[0].coords.trace_entry) is float
    assert stack.coords.trace_entry.shape == (4,)


def test_random_state_contract():
    st = random_state(3, 3, 42)
    st2 = random_state(3, 3, 42)
    assert np.array_equal(st.rho, st2.rho)
    eigs = np.linalg.eigvalsh(st.rho)
    assert eigs.min() >= -1e-12
    assert abs(np.trace(st.rho).real - 1) < 1e-12
    assert abs(st.coords.trace_entry - 1.0 / 9.0) < 1e-13


def test_stacked_random_states_are_the_single_draws():
    # a stack draws its states one after another from the generator, so the
    # expansion suite's blocks see the states of per-call sampling
    a, b = np.random.default_rng(31), np.random.default_rng(31)
    stacked = [random_state(3, 3, a, size=40), random_state(3, 3, a, size=7),
               random_state(2, 2, a, size=40)]
    single = [[random_state(dims, dims, b) for _ in range(st.rho.shape[0])]
              for dims, st in zip((3, 3, 2), stacked)]
    for st, singles in zip(stacked, single):
        assert np.abs(st.coords.ext - np.stack([s.coords.ext for s in singles])).max() < 1e-15
        assert np.array_equal(st[5].rho, singles[5].rho)


@pytest.mark.parametrize("dim,size", [(9, 5), (3, 3), (2, 1), (3, 0)])
def test_stacked_ginibre_is_the_single_draws(dim, size):
    # one call for the stack draws exactly what size single calls draw, and
    # a single call exactly the real parts, then the imaginary parts
    a, b, c = (np.random.default_rng(17) for _ in range(3))
    stack = ginibre(a, dim, size=size)
    singles = [ginibre(b, dim) for _ in range(size)]
    assert stack.shape == (size, dim, dim)
    assert stack.tobytes() == b"".join(m.tobytes() for m in singles)
    assert a.bit_generator.state == b.bit_generator.state
    for m in singles:
        two_calls = c.standard_normal((dim, dim)) + 1j * c.standard_normal((dim, dim))
        assert m.tobytes() == two_calls.tobytes()


def test_to_coords_stack_checks_every_matrix():
    rhos = np.stack([np.eye(9, dtype=complex) / 9] * 3)
    assert to_coords(rhos, 3, 3).ext.shape == (3, 9, 9)
    rhos[2, 0, 1] = 0.5
    with pytest.raises(ValueError, match="Hermitian"):
        to_coords(rhos, 3, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_rejected(tmp_path, bad):
    rho = np.eye(9, dtype=complex) / 9
    rho[4, 4] = bad
    with pytest.raises(ValueError, match="non-finite"):
        to_coords(rho, 3, 3)
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"dimA": 3, "dimB": 3, "re": rho.real.tolist(),
                                "im": rho.imag.tolist()}))
    with pytest.raises(ValueError, match="non-finite"):
        load_state(path)


def test_random_state_mean_purity():
    # Hilbert-Schmidt ensemble at total dimension 9; the measured mean was
    # 0.2195 over the pinned seed (analytic 2 N / (N^2 + 1) = 18/82)
    rng = np.random.default_rng(2024)
    purity = []
    for _ in range(300):
        rho = random_state(3, 3, rng).rho
        purity.append(float(np.trace(rho @ rho).real))
    mean = np.mean(purity)
    assert abs(mean - 18.0 / 82.0) / (18.0 / 82.0) < 0.2


def test_random_local_unitary_contract():
    U = random_local_unitary(3, 7)
    assert np.abs(U @ U.conj().T - np.eye(3)).max() < 1e-12
    assert abs(np.linalg.det(U) - 1) < 1e-12
    assert np.array_equal(U, random_local_unitary(3, 7))


def test_random_local_sl_contract():
    A = random_local_sl(3, 7)
    assert abs(np.linalg.det(A) - 1) < 1e-12
    assert np.abs(A @ A.conj().T - np.eye(3)).max() > 0.1


def test_apply_local_identity_and_trace():
    rng = np.random.default_rng(13)
    st = random_state(3, 3, rng)
    same = apply_local(st, np.eye(3), np.eye(3), renormalize=False)
    assert np.abs(same.rho - st.rho).max() < 1e-14
    U, V = random_local_unitary(3, rng), random_local_unitary(3, rng)
    moved = apply_local(st, U, V, renormalize=False)
    assert abs(np.trace(moved.rho).real - 1) < 1e-12
    A = random_local_sl(3, rng)
    renorm = apply_local(st, A, A, renormalize=True)
    assert abs(np.trace(renorm.rho).real - 1) < 1e-12


def test_apply_local_preserves_reduced_spectra_under_unitaries():
    rng = np.random.default_rng(14)
    st = random_state(3, 3, rng)
    U, V = random_local_unitary(3, rng), random_local_unitary(3, rng)
    moved = apply_local(st, U, V, renormalize=False)

    def reduced_a(rho):
        return np.trace(rho.reshape(3, 3, 3, 3), axis1=1, axis2=3)

    e1 = np.sort(np.linalg.eigvalsh(reduced_a(st.rho)))
    e2 = np.sort(np.linalg.eigvalsh(reduced_a(moved.rho)))
    assert np.abs(e1 - e2).max() < 1e-12


def test_apply_local_matches_numpy_kron():
    rng = np.random.default_rng(15)
    for dims in [(3, 3), (2, 2)]:
        st = random_state(*dims, rng)
        A, B = random_local_sl(dims[0], rng), random_local_sl(dims[1], rng)
        E = np.kron(A, B)
        rho = E @ st.rho @ E.conj().T
        assert np.array_equal(apply_local(st, A, B, renormalize=False).rho, rho)
        assert np.array_equal(apply_local(st, A, B).rho, rho / np.trace(rho).real)


@pytest.mark.parametrize("renormalize", [True, False])
def test_apply_local_of_a_stack_is_the_per_state_loop(renormalize):
    stack = random_state(3, 3, 0, size=5)
    A, B = random_local_sl(3, 1), random_local_sl(3, 2)
    moved = apply_local(stack, A, B, renormalize)
    for k in range(5):
        one = apply_local(stack[k], A, B, renormalize)
        assert np.array_equal(moved.rho[k], one.rho)
        assert np.array_equal(moved.coords.ext[k], one.coords.ext)


def test_apply_local_rejects_singular():
    st = random_state(3, 3, 0)
    with pytest.raises(ValueError):
        apply_local(st, np.zeros((3, 3)), np.eye(3))


def test_local_coordinate_map_consistency():
    # conjugating then extracting coordinates equals acting with the map
    rng = np.random.default_rng(21)
    st = random_state(3, 3, rng)
    A, B = random_local_sl(3, rng), random_local_sl(3, rng)
    moved = apply_local(st, A, B, renormalize=False)
    mA = coordinate_action(A, A, 3)
    mB = coordinate_action(B, B, 3)
    assert np.abs(mA.imag).max() < 1e-12 and np.abs(mB.imag).max() < 1e-12
    mA, mB = mA.real, mB.real
    assert np.abs(mA @ st.coords.ext @ mB.T - moved.coords.ext).max() < 1e-10


def test_physicality_diagnostics():
    st = random_state(3, 3, 1)
    diag = physicality(st)
    assert diag["physical"]
    bad = BipartiteState.from_rho(np.diag([2.0] + [-1.0 / 8.0] * 8), 3, 3)
    assert not physicality(bad)["physical"]


def test_physicality_refuses_a_stacked_state():
    with pytest.raises(ValueError, match="physicality takes one state"):
        physicality(random_state(3, 3, 0, size=4))


def test_state_file_round_trip(tmp_path):
    st = random_state(3, 3, 99)
    path = tmp_path / "state.json"
    save_state(st, path)
    loaded = load_state(path)
    assert np.array_equal(loaded.rho, st.rho)
    assert loaded.dimA == 3 and loaded.dimB == 3


def _state_text(dimA, dimB):
    D = 9
    return json.dumps({"dimA": dimA, "dimB": dimB, "re": (np.eye(D) / D).tolist(),
                       "im": np.zeros((D, D)).tolist()})


def test_state_file_nested_too_deeply(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    with pytest.raises(ValueError, match="malformed"):
        load_state(path)


@pytest.mark.parametrize("dim", ['"3"', "3.9", "3.0", "true", "null", "[3]"])
def test_state_file_dimension_must_be_an_integer(dim, tmp_path):
    path = tmp_path / "dims.json"
    path.write_text(_state_text(3, 3).replace('"dimA": 3', f'"dimA": {dim}'))
    with pytest.raises(ValueError, match="malformed"):
        load_state(path)
    path.write_text(_state_text(3, 3))
    assert load_state(path).dimA == 3


@pytest.mark.parametrize("entry", ["true", "false", '"0.5"', "null"])
@pytest.mark.parametrize("part,where", [("re", '[[0.1111111111111111, '), ("im", '[[0.0, ')])
def test_state_file_entries_must_be_numbers(entry, part, where, tmp_path):
    # numpy would read true as 1.0 and "0.5" as 0.5
    text = _state_text(3, 3)
    head, tail = text.split(f'"{part}": ', 1)
    assert tail.startswith(where)
    path = tmp_path / "entries.json"
    path.write_text(head + f'"{part}": [[{entry}, ' + tail[len(where):])
    with pytest.raises(ValueError, match="JSON numbers"):
        load_state(path)


def test_state_file_validation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dimA": 3, "dimB": 3, "re": [[1.0]], "im": [[0.0]]}))
    with pytest.raises(ValueError):
        load_state(path)
    path.write_text('{"dimA": 3')
    with pytest.raises((ValueError, json.JSONDecodeError)):
        load_state(path)


# seeds of one to five entropy words (2**128 + 3 gives five, six with the
# index: the words past the pool), and index ranges from 0, inside a block
# and up to 2**32, the last index that is one entropy word
SEED_WORD_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 + 1, 2 ** 128 + 3]
SEED_WORD_RANGES = [(0, 64), (384, 400), (2 ** 32 - 4, 2 ** 32)]


@pytest.mark.parametrize("start, stop", SEED_WORD_RANGES)
@pytest.mark.parametrize("seed", SEED_WORD_SEEDS)
def test_trial_seed_words_are_the_seed_sequence_words(seed, start, stop):
    words = trial_seed_words(seed, start, stop)
    assert words.dtype == np.uint64 and words.shape == (stop - start, 4)
    for k, i in enumerate(range(start, stop)):
        expected = np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
        assert words[k].tobytes() == expected.tobytes(), (seed, i)


def test_seed_words_seed_the_generator_of_the_seed_sequence():
    words = trial_seed_words(2 ** 64 + 1, 2 ** 32 - 2, 2 ** 32)
    for k, i in enumerate(range(2 ** 32 - 2, 2 ** 32)):
        rng = np.random.Generator(np.random.PCG64(SeedWords(words[k])))
        expected = np.random.default_rng(np.random.SeedSequence((2 ** 64 + 1, i)))
        assert rng.standard_normal(50).tobytes() == expected.standard_normal(50).tobytes()
        assert rng.random(5).tobytes() == expected.random(5).tobytes()
    with pytest.raises(ValueError, match="4 of uint64"):
        SeedWords(words[0]).generate_state(8, np.uint32)


def test_trial_seed_words_edges():
    assert trial_seed_words(5, 7, 7).shape == (0, 4)
    last = trial_seed_words(5, 2 ** 32 - 1, 2 ** 32)
    assert last[0].tobytes() == np.random.SeedSequence((5, 2 ** 32 - 1)).generate_state(
        4, np.uint64).tobytes()
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        trial_seed_words(5, 2 ** 32 - 1, 2 ** 32 + 1)
    with pytest.raises(ValueError, match="stop must be at least 7"):
        trial_seed_words(5, 7, 6)
