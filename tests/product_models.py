"""Product models: harmonic.sys plus k decoupled rotations.

product_model(k) adds to the bundled harmonic model k rotations (u_i, v_i)
with f_u_i = -v_i and f_v_i = u_i, each carried to the identity reduced
pairs s_i : p_s_i and t_i : p_t_i.  The model has N = 2 + 2k coordinates
and 2k + 1 reduced pairs, every new name ranges over [-2, 2], and the
[lattice] and [anomaly] sections are dropped (propagate and anomaly take
one reduced pair only).  Its reduced Hamiltonian is harmonic's closed form
plus sum_i (s_i p_t_i - t_i p_s_i); expected_h_star(k) is that sum as one
normalized node.

Run as a script, it writes the k-rotation model to a path and prints the
expected reduced Hamiltonian:

    python tests/product_models.py 12 product12.sys
"""

import sys

from emq.expr import Add, Const, Mul, Sym, normalize, parse
from emq.sysfile import bundled_text

# harmonic's reduced Hamiltonian, as its file states it
HARMONIC_H_STAR = "p_zeta^2/(2*a1) + (a1/2)*zeta^2"

_DROPPED = ("[lattice]", "[anomaly]")


def _rotation_lines(i):
    u, v, s, t = f"u{i}", f"v{i}", f"s{i}", f"t{i}"
    system = [f"f_{u} = -{v}", f"f_{v} = {u}"]
    darboux = [f"reduced = {s} : p_{s}", f"reduced = {t} : p_{t}",
               f"{s} = {u}", f"p_{s} = p_{u}", f"{t} = {v}", f"p_{t} = p_{v}",
               f"inv_{u} = {s}", f"inv_p_{u} = p_{s}",
               f"inv_{v} = {t}", f"inv_p_{v} = p_{t}"]
    domain = [f"{name} = -2.0, 2.0"
              for name in (u, v, f"p_{u}", f"p_{v}",
                           s, t, f"p_{s}", f"p_{t}")]
    return system, darboux, domain


def product_model(k: int) -> str:
    """The text of harmonic.sys with k decoupled rotations added."""
    added = {"[system]": [], "[darboux]": [], "[domain]": []}
    for i in range(k):
        for header, lines in zip(added, _rotation_lines(i)):
            added[header] += lines
    rotations = "".join(f", u{i}, v{i}" for i in range(k))
    out, header = [], None

    def close(header):
        # a section's new lines go after its last line, before the blank
        # lines that end it
        while out and not out[-1]:
            out.pop()
        out.extend(added.get(header, ()))
        out.append("")

    for line in bundled_text("harmonic").splitlines():
        if line.startswith("["):
            close(header)
            header = line
        if header in _DROPPED:
            continue
        if line == "coordinates = x, y":
            line += rotations
        out.append(line)
    close(header)
    return "\n".join(out)


def expected_h_star(k: int):
    """harmonic's H* + sum_i (s_i p_t_i - t_i p_s_i), normalized."""
    terms = [parse(HARMONIC_H_STAR)]
    for i in range(k):
        s, t = f"s{i}", f"t{i}"
        terms.append(Mul((Sym(s), Sym(f"p_{t}"))))
        terms.append(Mul((Const(-1), Sym(t), Sym(f"p_{s}"))))
    return normalize(Add(tuple(terms)))


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/product_models.py K OUT.sys")
    k, out = int(sys.argv[1]), sys.argv[2]
    with open(out, "w") as fh:
        fh.write(product_model(k))
    print(expected_h_star(k))
