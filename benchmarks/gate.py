"""Output gate: decides whether one command's stdout is correct.

Two independent checks per command:

* a frozen SHA-256 digest of stdout (``digests.json``) for every command
  whose output is deterministic: all of them except ``transition_check``,
  whose sample counts depend on the seed.  ``check_local_model`` prints the
  same lines for every seed as long as every model passes;
* structural checks that need no frozen bytes: every VPP has constant and
  leading coefficient 1, degree 2d and no odd powers, and is palindromic
  when it has a single line (W_(n) is then M-bar_{0,n+1}, smooth and
  projective; other types are singular and their VPPs are mostly not
  palindromic, e.g. (0,7) and (2,2,2,2)), the f-vector ends in 1,
  the ``enumerate`` per-dimension counts sum to its total, the local-model
  check ends in ``all ok``, and a transition check verified at least one
  sample and accounts for every sample.

To refreeze a digest after a deliberate output change, run the command from
the repository root with ``src`` on ``PYTHONPATH`` and pipe it through
``sha256sum``.
"""
from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

DIGESTS = json.loads((Path(__file__).parent / "digests.json").read_text())


def parse_poly(text: str) -> list[int]:
    """Coefficients, ascending, of a polynomial printed by UniPoly.__str__."""
    coeffs: dict[int, int] = {}
    for term in text.strip().replace(" - ", " + -").split(" + "):
        match = re.fullmatch(r"(-?)(\d*)(x(?:\^(\d+))?)?", term)
        if match is None or not (match.group(2) or match.group(3)):
            raise ValueError(f"cannot parse term {term!r}")
        sign, mag, has_x, power = match.groups()
        degree = (int(power) if power else 1) if has_x else 0
        value = int(mag) if mag else 1
        coeffs[degree] = -value if sign else value
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def _check_vpp(n: tuple[int, ...], text: str) -> str | None:
    coeffs = parse_poly(text)
    d = sum(n) + len(n) - 3
    if len(coeffs) - 1 != 2 * d:
        return f"VPP of {n} has degree {len(coeffs) - 1}, expected {2 * d}"
    if coeffs[0] != 1 or coeffs[-1] != 1:
        return f"VPP of {n} has constant or leading coefficient other than 1"
    if any(coeffs[1::2]):
        return f"VPP of {n} has an odd power"
    if len(n) == 1 and coeffs != coeffs[::-1]:
        return f"VPP of {n} is not palindromic"
    return None


def _vpp_table(lines: list[str], argv: list[str]) -> str | None:
    if not lines:
        return "empty table"
    for line in lines:
        match = re.fullmatch(r"\(([\d,]+)\): (.+)", line)
        if match is None:
            return f"malformed row {line!r}"
        n = tuple(int(c) for c in match.group(1).split(","))
        if sum(n) + len(n) - 3 != int(argv[1]):
            return f"row {n} is not of dimension {argv[1]}"
        problem = _check_vpp(n, match.group(2))
        if problem:
            return problem
    return None


def _vpp(lines: list[str], argv: list[str]) -> str | None:
    if len(lines) != 1:
        return "expected one line"
    return _check_vpp(tuple(int(c) for c in argv[1].split(",")), lines[0])


def _fvector(lines: list[str], argv: list[str]) -> str | None:
    counts = json.loads(lines[0]) if len(lines) == 1 else None
    if not counts or counts[-1] != 1 or min(counts) < 1:
        return "f-vector must be positive and end in 1"
    return None


def _enumerate(lines: list[str], argv: list[str]) -> str | None:
    match = re.fullmatch(r"(\d+) strata: dims \[(.*)\]", lines[0]) if len(lines) == 1 else None
    if match is None:
        return "malformed enumerate output"
    counts = [int(item.split(":")[1]) for item in match.group(2).split(", ")]
    if sum(counts) != int(match.group(1)):
        return f"dimension counts sum to {sum(counts)}, total is {match.group(1)}"
    return None


def _check_local_model(lines: list[str], argv: list[str]) -> str | None:
    match = re.fullmatch(r"checked (\d+) models: all ok", lines[-1]) if lines else None
    if match is None:
        return "local-model check did not end in 'all ok'"
    ok = [line for line in lines[:-1] if re.fullmatch(r"model \d+: ok \(.*\)", line)]
    if len(ok) != int(match.group(1)) or len(lines) != len(ok) + 1:
        return "not every model reported ok"
    return None


def _transition_check(lines: list[str], argv: list[str]) -> str | None:
    pattern = r"verified (\d+)/(\d+) samples \((\d+) skipped\)"
    match = re.fullmatch(pattern, lines[0]) if len(lines) == 1 else None
    if match is None:
        return "malformed transition-check output"
    verified, samples, skipped = (int(g) for g in match.groups())
    if samples != int(argv[argv.index("--samples") + 1]):
        return f"reported {samples} samples, asked for another number"
    if verified < 1 or verified + skipped != samples:
        return f"verified {verified} + skipped {skipped} != {samples}, or none verified"
    return None


STRUCTURE = {
    "vpp_table": _vpp_table,
    "vpp": _vpp,
    "fvector": _fvector,
    "enumerate": _enumerate,
    "check_local_model": _check_local_model,
    "transition_check": _transition_check,
}


def check(command: str, argv: list[str], stdout: bytes) -> str | None:
    """None when stdout of command (run with argv) is correct, else why not."""
    expected = DIGESTS.get(command)
    if expected is not None and hashlib.sha256(stdout).hexdigest() != expected:
        return "stdout differs from the frozen digest"
    try:
        return STRUCTURE[command](stdout.decode().splitlines(), argv)
    except (ValueError, IndexError, UnicodeDecodeError) as exc:
        return f"unparseable output: {exc}"
