"""The package's conventions as one rule table over the source of `src/qps`.

Each rule is a regex, run on every raw source line of the package (comments and
docstrings included), and an allowlist that maps a scope to the largest number
of matching lines allowed there.  A scope is a module ("lattice"), a function,
class or method in it ("lattice._invalid", "teleport.BellLabel.reduced"), or its
import statements ("cli.<import>"); decorator lines belong to their function.
A matching line counts against the innermost allowlisted scope that holds it,
and fails when no allowlisted scope holds it.
"""

import ast
import math
import re
import shutil
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qps"
ANY = math.inf

RULES = {
    # every Fourier sum goes through lattice._dft/_idft/_phases/_dft2, every cas transform
    # through lattice._cas and every other phase through lattice._root, so a switch to an
    # FFT or a change of a table edits one module
    "phase_tables": (r"_dft_phases|_conj_phases|_hartley|_roots", {"lattice": ANY}),
    # the 2-D real transform between an even table and its phase-space kernel is built once,
    # lattice._cas2, so the smoothing multiply, the overlaps and the depolarizer share it
    "cas_pair": (r"_cas\(_cas\(", {"lattice._cas2": 1}),
    # every phase is read from lattice._roots; schwinger.s_op keeps the two exps of the
    # reference definition, which the loop oracles pin bit for bit
    "imaginary_exp": (r"np\.exp\((.*[^A-Za-z_0-9.])?[0-9.]+j\b", {"lattice": ANY, "schwinger.s_op": 2}),
    # lattice._index turns every label into its row; theta.smoothing_1d centres a float
    # offset, not a row
    "label_rows": (
        r"center_mod\(.*\) *\+ *(ell|half_width)|(ks|labels\(N\)) *\+ *(ell|half_width)"
        r"|\+ *(ell|\(N - 1\) // 2|N // 2)\) *% *N|half_width\(N\) *-|\[ell, *ell\]",
        {"lattice": ANY, "theta.smoothing_1d": 1},
    ),
    # the layout of S(eta, xi) is read by lattice alone (_traces, _traces_at, _traces2,
    # _scatter, _shift_rows), so a change of layout edits one module
    "layout_of_s": (r"_diagonals", {"lattice": ANY}),
    # every shift is a gather through lattice._shift_rows and every read at label pairs one
    # take through lattice._at: no roll, no wrapped take and no outer-product index anywhere
    "roll_or_outer_index": (r'np\.roll|np\.ix_\(|mode="wrap"', {}),
    # every read of a storage layout is one take of cached flat positions, never a two-array
    # index of row and column tables or of two label arrays
    "two_array_index": (r"\[(\.\.\., *)?(rows|cols)\b|\[_index\(.*\), *_index\(|\[\w+\[[^\]\[]*\], *\w+\[", {"lattice": ANY}),
    # every power of the kernel is read from schwinger._kernel_power, one exp per distinct
    # value of log K and a gather, so no route takes its own exp of the log table
    "log_kernel": (r"_log_kernel", {"theta": ANY}),
    "kernel_orbits": (r"_kernel_orbits", {"theta": ANY, "schwinger": ANY}),
    # every dual-plane multiplier K^t, K and K^2 of the smoothing steps included, is read
    # from schwinger._kernel_power; the public K table serves kernel_value and `qps grid`
    "kernel_table": (r"kernel_table", {"theta": ANY, "cli.<import>": 1, "cli.cmd_grid": 1}),
    # every table is made read-only by lattice._table_cache or lattice._frozen
    "frozen_tables": (r"setflags|writeable", {"lattice": ANY}),
    # lattice._table_cache is the one table cache; cli.build_parser caches its parser, not a table
    "table_cache": (r"lru_cache", {"lattice": ANY, "cli.<import>": 1, "cli.build_parser": 1}),
    # every integer argument is read by lattice._integers and every order by schwinger.check_order
    "integer_rule": (r"import numbers|numbers\.|isinstance\(.*\bint\b", {"lattice": ANY}),
    # every rejected argument raises lattice._invalid, which names the entry point called
    "error_rule": (r"ValueError\(", {"lattice._invalid": 1}),
}


def _scoped_lines(path, root):
    """The lines of one module and the (scope, first, last) line span of the module, of each
    function, class and method in it, and of each import statement."""
    module = ".".join(path.relative_to(root).with_suffix("").parts)
    text = path.read_text()
    lines = text.splitlines()
    spans = [(module, 1, len(lines))]

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                spans.append((name, min([d.lineno for d in child.decorator_list], default=child.lineno), child.end_lineno))
                walk(child, name)
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                spans.append((f"{module}.<import>", child.lineno, child.end_lineno))
            walk(child, prefix)

    walk(ast.parse(text), module)
    return lines, spans


def violations(rule, root=SRC):
    """The lines of the package under `root` that break `rule`, as "path:line: text": each
    matching line outside its allowlist, and every line of a scope over its count."""
    regex, allow = RULES[rule]
    pattern = re.compile(regex, re.ASCII)
    found, counted = [], defaultdict(list)
    for path in sorted(root.rglob("*.py")):
        lines, spans = _scoped_lines(path, root)
        for n, line in enumerate(lines, 1):
            if pattern.search(line):
                hit = f"{path.relative_to(root.parent)}:{n}: {line.strip()}"
                held = [s for s in spans if s[0] in allow and s[1] <= n <= s[2]]
                if held:
                    counted[min(held, key=lambda s: s[2] - s[1])[0]].append(hit)
                else:
                    found.append(hit)
    return found + [hit for scope, hits in counted.items() if len(hits) > allow[scope] for hit in hits]


@pytest.mark.parametrize("rule", RULES)
def test_package_keeps_the_convention(rule):
    assert violations(rule) == []


# one line that breaks each rule, and the scope it goes into
BREAKS = [
    ("phase_tables", "teleport", "ph = _dft_phases(N)"),
    ("cas_pair", "schwinger", "grid = _cas(_cas(K).T).T"),
    ("cas_pair", "lattice._cas2", "again = _cas(_cas(G).T)"),
    ("imaginary_exp", "quasiprob", "w = np.exp(2j * np.pi / N)"),
    ("imaginary_exp", "schwinger.s_op", "extra = np.exp(1j * np.pi * eta / N)"),
    ("label_rows", "tomography", "row = center_mod(x, N) + ell"),
    ("label_rows", "theta.smoothing_1d", "y = (x + N // 2) % N"),
    ("layout_of_s", "teleport", "gather = _diagonals(N)[0]"),
    ("roll_or_outer_index", "lattice", "W = np.roll(W, 1, axis=0)"),
    ("roll_or_outer_index", "teleport", 'psi = seed.take(ks, axis=0, mode="wrap")'),
    ("two_array_index", "quasiprob", "v = grid[rows, cols]"),
    ("log_kernel", "schwinger", "L = _log_kernel(N)"),
    ("kernel_orbits", "quasiprob", "values = _kernel_orbits(N)"),
    ("kernel_table", "quasiprob", "M = kernel_table(N) ** 2"),
    ("frozen_tables", "theta", "a.setflags(write=False)"),
    ("table_cache", "theta", "from functools import lru_cache"),
    ("table_cache", "cli", "parse = lru_cache(maxsize=4)(parse)"),
    ("integer_rule", "tomography", "ok = isinstance(n, int)"),
    ("error_rule", "quasiprob", 'err = ValueError("bad")'),
    ("error_rule", "lattice._invalid", 'other = ValueError("second")'),
]


def _inject(root, scope, text):
    """Put the line `text` into `scope` of the package copy under `root`: at the end of a
    module, or after the last statement of a function, at the indent of its body."""
    module, *names = scope.split(".")
    path = root / f"{module}.py"
    lines = path.read_text().splitlines()
    node = ast.parse("\n".join(lines))
    for name in names:
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    at, indent = (node.end_lineno, node.body[0].col_offset) if names else (len(lines), 0)
    lines.insert(at, " " * indent + text)
    path.write_text("\n".join(lines) + "\n")


def test_every_rule_has_a_break():
    assert {rule for rule, _, _ in BREAKS} == set(RULES)


@pytest.mark.parametrize("rule, scope, text", BREAKS)
def test_rule_flags_a_line_that_breaks_it(tmp_path, rule, scope, text):
    # a regex that matches nothing, or an allowlist that holds too much, fails here
    root = tmp_path / "qps"
    shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    assert violations(rule, root) == []
    _inject(root, scope, text)
    assert [hit for hit in violations(rule, root) if hit.endswith(": " + text)]
