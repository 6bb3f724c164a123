"""Mutants that the checks or the tests must catch.

Each entry of ``MUTANTS`` is a small defect written into the package, most
of them into its numerical kernels: an old text that occurs exactly once in
one module of ``src/djensemble`` and the text that replaces it. For each edit the script patches a temporary copy of
``src/``, confirms that a child process imports that copy, and then requires
the defect to be caught: ``python -m djensemble verify`` must exit 1 with a
FAIL line, or, for the edits that ``verify`` does not cover by design, the
named tier-1 test must fail.

    python tests/mutants.py

prints one line per edit and exits 0 when every edit is caught, 1 otherwise.
The file name keeps pytest from collecting it: every edit costs a child
process or two, about 0.5 s each.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str
    old: str
    new: str
    # None: ``verify`` must exit 1; otherwise the pytest node id that must fail
    test: str | None = None


MUTANTS = (
    Mutant("naive medium conjugated", "manybody.py",
           "np.exp(-1j * lam_t * w)", "np.exp(1j * lam_t * w)"),
    Mutant("_medium_phase conjugated", "manybody.py",
           "tilt = np.exp(-1j * (theta / n_atoms)", "tilt = np.exp(1j * (theta / n_atoms)"),
    Mutant("u_eff_exact at -theta", "ensemble.py",
           "expm_hermitian(_MEDIUM, theta)", "expm_hermitian(_MEDIUM, -theta)"),
    Mutant("u_eff_exact at |theta|", "ensemble.py",
           "expm_hermitian(_MEDIUM, theta)", "expm_hermitian(_MEDIUM, abs(theta))"),
    # v e^{-i theta w} v^T is unitary too, so only the angle's action shows it
    Mutant("the Hamiltonian keeps v^T for v^dag", "qstate.py",
           "adjoint = v.conj().T", "adjoint = v.T"),
    Mutant("symmetric_rotation with the half bases and their transposes swapped", "manybody.py",
           "plus = (xp.T @ (f[:hp] + f[::-1][:hp])).view(np.complex128)\n"
           "    minus = (xq.T @ (f[:hq] - f[::-1][:hq])).view(np.complex128)\n"
           "    eigen = np.exp((-1j * half_beta) * lam)[:, None]\n"
           "    plus *= eigen[:hp]\n"
           "    minus *= eigen[hp:]\n"
           "    plus, minus = xp @ plus.view(np.float64), xq @ minus.view(np.float64)",
           "plus = (xp @ (f[:hp] + f[::-1][:hp])).view(np.complex128)\n"
           "    minus = (xq @ (f[:hq] - f[::-1][:hq])).view(np.complex128)\n"
           "    eigen = np.exp((-1j * half_beta) * lam)[:, None]\n"
           "    plus *= eigen[:hp]\n"
           "    minus *= eigen[hp:]\n"
           "    plus, minus = xp.T @ plus.view(np.float64), xq.T @ minus.view(np.float64)"),
    Mutant("sigma_x middle-row coupling without sqrt 2", "manybody.py",
           "t[-1, -2] *= math.sqrt(2.0)", "t[-1, -2] *= 1.0"),
    Mutant("sigma_x odd-N last diagonal entry with the wrong sign", "manybody.py",
           "t[-1, -1] = odd * sign * b[half]", "t[-1, -1] = -odd * sign * b[half]"),
    Mutant("coherent-band phase with alpha and beta swapped", "manybody.py",
           "(n_atoms - m) * np.angle(alpha) + m * np.angle(beta)",
           "(n_atoms - m) * np.angle(beta) + m * np.angle(alpha)"),
    # each pass then builds a new array and leaves amps as the oracle's signs
    Mutant("the butterfly skips its write-back", "protocol.py",
           "pairs[:, 0], pairs[:, 1] = pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]",
           "pairs = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1)"),
    Mutant("closing rule: photon 1 reads the x2 bit", "protocol.py",
           "for photon, probe in ((1, 2), (2, 1))", "for photon, probe in ((1, 1), (2, 1))"),
    Mutant("composite rotation from the wrong variant order", "polarization.py",
           '"prime": (1, 4, 3)', '"prime": (1, 3, 4)'),
    Mutant("primed extreme phased as m = N - 1", "manybody.py",
           "first = extreme * n_atoms", "first = extreme * (n_atoms - 1)"),
    Mutant("PhotonRotation's pair gate built on the other photon", "manybody.py",
           "if self.photon == 1 else", "if self.photon == 2 else"),
    Mutant("born_distribution's fold transposed", "qstate.py",
           ".reshape(_FOLD_ROWS, width).sum(axis=0)", ".reshape(width, _FOLD_ROWS).sum(axis=1)"),
    Mutant("naive product start from the mirrored atom", "manybody.py",
           "column, state = single[:, None], photons", "column, state = single[::-1, None], photons"),
    Mutant("naive atom rotation before the first medium step transposed", "manybody.py",
           "single = op.matrix @ single", "single = op.matrix.T @ single"),
    Mutant("naive photon rotation before the first medium step transposed", "manybody.py",
           "photons = op.pair @ photons", "photons = op.pair.T @ photons"),
    Mutant("cached medium eigenbasis with the level counts swapped", "manybody.py",
           "(n_atoms - m) * _GEN_PLUS + m * _GEN_MINUS", "m * _GEN_PLUS + (n_atoms - m) * _GEN_MINUS"),
    Mutant("lam and mu swapped in the bd0 terms", "manybody.py",
           "np.array([[lam], [mu]])", "np.array([[mu], [lam]])"),
    # the band is then not normalized, so a check raises; run_all_checks
    # reports that as a FAIL line
    Mutant("bd0 series with the wrong denominators", "manybody.py",
           "series += term * (1.0 / (2 * j + 1))", "series += term * (1.0 / (2 * j + 3))"),
    # every vector the replays hand over is at unit norm to rounding, which
    # moves verify's figures by ulps; only a scaled vector shows the edit
    Mutant("coherent band from the unscaled vector", "manybody.py",
           "p = (abs(beta) / scale) ** 2\n    q = (abs(alpha) / scale) ** 2",
           "p = abs(beta) ** 2\n    q = abs(alpha) ** 2",
           "tests/test_manybody.py::TestAtomState::test_scaled_vector_gives_the_unit_vectors_band"),
    # the protocol never reaches the medium off the plain-ground extreme, and
    # the conjugated input changes nothing on its real product rows
    Mutant("paper map on the conjugated input", "ensemble.py",
           "out = _K @ state.amplitudes", "out = _K @ state.amplitudes.conj()",
           "tests/test_ensemble.py::TestPaperPolarizerMap::test_generic_superposition_matches_the_row_formula"),
    Mutant("primed photon pair written as the plain one", "ensemble.py",
           "np.array([[-1.0j, 1.0], [-1.0j, -1.0]])", "np.array([[-1.0j, 1.0], [-1.0j, 1.0]])",
           "tests/test_ensemble.py::TestPaperPolarizerMap::test_primed_branch_mirror"),
    # every catalog atom gate is real, so only the random complex gates of
    # the compact-vs-naive property see a conjugated one
    Mutant("compact atom gate conjugated", "protocol.py",
           'embed_single("atom", op.gate, PROTOCOL_SPACE)',
           'embed_single("atom", AtomRotation(op.matrix.conj()).gate, PROTOCOL_SPACE)',
           "tests/test_properties.py::test_compact_replay_matches_naive_on_random_sequences"),
    # the Dicke state's forms: verify reads their dense amplitudes, so named
    # tests pin the marginal of their rows, the band's norm check and
    # widening, and the product's unit-norm read of its atom
    Mutant("Dicke rows summed as |a| where |a|^2 belongs", "qstate.py",
           "amps = rows.reshape((-1, *dims[1:]))", "amps = np.sqrt(abs(rows)).reshape((-1, *dims[1:]))",
           "tests/test_manybody.py::TestDickeSimulator::test_catalog_at_a_billion_atoms_and_more_matches_the_compact_run"),
    Mutant("dense product built from the atom at its own norm", "manybody.py",
           "rows = np.outer(band, rows)",
           "rows = np.outer(band * math.hypot(*map(abs, self.atom)) ** self.n_atoms, rows)",
           "tests/test_manybody.py::TestDickeSimulator::test_product_form_reads_its_atom_at_unit_norm"),
    Mutant("product form's atom taken unchecked", "manybody.py",
           "alpha, beta, _ = _atom_norm(self.atom)", "alpha, beta = map(complex, self.atom)",
           "tests/test_manybody.py::TestDickeSimulator::test_product_form_refuses_an_atom_it_cannot_read"),
    # the band of the first two entries comes back, whatever follows them
    Mutant("coherent band read past the single-atom shape", "manybody.py",
           "alpha, beta, scale = _atom_norm(single)", "alpha, beta, scale = _atom_norm(single[:2])",
           "tests/test_manybody.py::TestAtomState::test_vector_of_another_shape_is_refused"),
    # the limit then first meets the (N + 1)-row pad, which cannot be allocated at N = 10^12
    Mutant("rotation limit checked after the band is padded", "manybody.py",
           "np.zeros((_dense_rotation_atoms(n_atoms) + 1, 4), dtype=complex)", "np.zeros((n_atoms + 1, 4), dtype=complex)",
           "tests/test_manybody.py::TestDickeSimulator::test_rotation_limit_is_checked_before_the_band_is_padded"),
    Mutant("band_rows' norm checked one row short of the band", "qstate.py",
           "_check_unit_norm(band)", "_check_unit_norm(band[:-1])",
           "tests/test_qstate.py::TestBandedState::test_band_is_checked_by_the_state_rule_to_its_last_row"),
    Mutant("band_rows not widened to whole fold groups", "qstate.py",
           "first, end = start - start % _FOLD_ROWS, min(-(-stop // _FOLD_ROWS) * _FOLD_ROWS, shape[0])",
           "first, end = start, stop",
           "tests/test_qstate.py::TestBandedState::test_marginal_is_the_whole_states_bit_for_bit"),
    # the medium step's blocks: the default block holds every band that
    # verify and the catalog build, so a test shrinks it to 7 rows
    Mutant("medium-step block offsets dropped", "manybody.py",
           "np.arange(first + lo, first + lo + len(block))", "np.arange(first, first + len(block))",
           "tests/test_manybody.py::TestDickeSimulator::test_medium_step_blocks_phase_their_own_rows"),
    # every distinct edge of every table must read the block's one stretch of the stream
    Mutant("each edge reads the next block of the stream", "qstate.py",
           "        u = rng.random(min(_SHOT_BLOCK, shots - start))\n"
           "        for k, edge in enumerate(edges):\n",
           "        for k, edge in enumerate(edges):\n"
           "            u = rng.random(min(_SHOT_BLOCK, shots - start))\n",
           "tests/test_qstate.py::TestSampleShots::test_each_table_counts_as_its_own_call"),
    # edits outside the kernels: verify's results do not move, so a named
    # test pins each
    Mutant("frozen owner shared again", "qstate.py",
           "arr = np.array(values, dtype=np.complex128)",
           "arr = values if (type(values) is np.ndarray and not values.flags.writeable and values.flags.owndata\n"
           "                      and values.flags.c_contiguous and values.dtype == np.complex128)"
           " else np.array(values, dtype=np.complex128)",
           "tests/test_qstate.py::TestStateVector::test_frozen_owner_is_copied"),
    # a resumed replay: verify's replays are all fresh, so named tests pin the
    # mode check and the prefix rule
    Mutant("replay resumed after a trace of the other mode", "protocol.py",
           "if after.mode != mode:", "if after.mode not in MODES:",
           "tests/test_protocol.py::TestResume::test_a_trace_of_the_other_mode_is_refused"),
    Mutant("steps matched by type, not by identity or angle", "protocol.py",
           "if op != prior)", "if type(op) is not type(prior))",
           "tests/test_protocol.py::TestResume::test_every_ordered_catalog_pair_resumes_to_the_fresh_run"),
    Mutant("paper-mode weight reported as 1.0", "protocol.py",
           "post_selection = result.post_selection_probability", "post_selection = 1.0",
           "tests/test_protocol.py::TestPaperModeTraces::test_post_selection_is_the_maps_weight"),
    # a constant function builds no medium step, so nothing else checks its angle
    Mutant("protocol angle taken unchecked", "protocol.py",
           '    theta = check_real("theta", theta)\n    cls = f.classification', "    cls = f.classification",
           "tests/test_protocol.py::TestMediumAngle::test_bad_angle_is_named"),
    Mutant("deterministic within 1e-3", "protocol.py",
           "DETERMINISTIC_EPS = 1e-9", "DETERMINISTIC_EPS = 1e-3",
           "tests/test_protocol.py::TestClassify::test_deterministic_within_one_part_in_a_billion"),
    Mutant("linear extension flagged from three populated rows", "ensemble.py",
           "np.abs(state.amplitudes) > 1e-12) > 1,", "np.abs(state.amplitudes) > 1e-12) > 2,",
           "tests/test_ensemble.py::TestPaperPolarizerMap::test_two_populated_rows_use_linear_extension"),
    Mutant("detector clicks read from int() of each bit", "polarization.py",
           "b1, b2 = pattern_bits(pattern)", "b1, b2 = map(int, pattern)",
           "tests/test_polarization.py::TestSourceAndDetection::test_pattern_is_read_by_one_two_bit_rule"),
    # argparse then prints its usage and raises SystemExit(2) out of main
    Mutant("parser refusal handed back to argparse", "cli.py",
           "raise argparse.ArgumentError(None, message)", "super().error(message)",
           "tests/test_cli.py::TestRefusals::test_refusal_is_one_error_line"),
    # /dev/full shows it where it exists; a NaN report's refused write shows it everywhere
    Mutant("console lines printed before the --out write", "cli.py",
           "    if out_path:\n"
           "        # a NaN or Inf in a report",
           "    for line in lines:\n"
           "        print(line)\n"
           "    lines = []\n"
           "    if out_path:\n"
           "        # a NaN or Inf in a report",
           "tests/test_cli.py::TestOutOption::test_nan_never_reaches_a_report"),
    # f1 and f2 share one replay, and f3..f8 another: f5..f8 report f3's pattern under --function all
    Mutant("functions grouped by their classification, not their oracle", "cli.py",
           "oracles = [build_oracle(f, theta) for f in functions]",
           "oracles = [f.classification for f in functions]",
           "tests/test_cli.py::TestOneDrawPerCommand::test_each_entry_equals_its_own_command"),
    Mutant("decoherence threshold at 100 transit times", "params.py",
           "DECOHERENCE_THRESHOLD = 1e3", "DECOHERENCE_THRESHOLD = 1e2",
           "tests/test_params.py::TestRequiredDetuning::test_decoherence_threshold_is_a_thousand_transit_times"),
    Mutant("unreduced-vs-collective bound loosened to 1e10", "checks.py",
           '"unreduced vs collective medium evolution", 1e-10,', '"unreduced vs collective medium evolution", 1e10,',
           "tests/test_checks.py::test_naive_vs_collective_catches_a_conjugated_naive_kernel"),
)


def _child(args: list[str], src: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True)


def run_mutant(mutant: Mutant, scratch: Path) -> tuple[bool, str]:
    """Whether the edit is caught, and by what or why not."""
    src = scratch / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "djensemble" / mutant.module
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False, f"old text occurs {text.count(mutant.old)} times in {mutant.module}, not once"
    path.write_text(text.replace(mutant.old, mutant.new))
    where = _child(["-c", "import djensemble; print(djensemble.__file__)"], src).stdout.strip()
    if not Path(where).resolve().is_relative_to(src.resolve()):
        return False, f"the child imported {where or 'nothing'}, not the patched copy"
    if mutant.test is None:
        result = _child(["-m", "djensemble", "verify"], src)
        failed = [line.split("  ")[0] for line in result.stdout.splitlines() if "  FAIL" in line]
        if result.returncode != 1 or not failed:
            return False, f"verify exited {result.returncode} with {len(failed)} FAIL lines"
        return True, "verify: " + "; ".join(failed)
    result = _child(["-m", "pytest", "-q", "-p", "no:cacheprovider", mutant.test], src)
    if result.returncode != 1:
        return False, f"{mutant.test} exited {result.returncode}, not 1 (a failed test)"
    return True, mutant.test.rsplit("::", 1)[-1]


def main() -> int:
    caught = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory(prefix="djensemble-mutant-") as scratch:
            ok, note = run_mutant(mutant, Path(scratch))
        print(f"{'caught' if ok else 'MISSED'}  {mutant.name}  ({note})", flush=True)
        caught += ok
    print(f"{caught} of {len(MUTANTS)} mutants caught")
    return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
