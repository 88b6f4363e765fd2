"""One element rule: every entry point that takes a caller's element reads
it the same way, whether it is spelled as a tuple, a list, a numpy row or,
in rank 1, a bare Python or numpy integer. Finite groups also reduce
coordinates modulo the group. A wrong rank is a ValueError, except for
membership, which answers False."""
from __future__ import annotations

import numpy as np
import pytest

from turanlab import (apply_endomorphism, check_packing_set, dft,
                      difference_set, endomorphism, find_spectrum, from_dict,
                      indicator, is_spectrum, lattice_domain, make_group,
                      packing_bound, periodic_set, quotient_group,
                      spectral_bound, subgroup_generated, symmetric_domain,
                      tiling_bound, witness_zd)

# Z_8 and Z_2 x Z_4, each with a domain H - H, a packing set Lambda that
# tiles with H, a spectrum T of H, subgroup generators K, automorphism
# images and one further element x
FINITE = {
    "Z8": dict(moduli=[8], H=[(0,), (1,), (4,), (5,)], Lambda=[(0,), (2,)],
               T=[(0,), (1,), (4,), (5,)], K=[(4,)], images=[(3,)],
               x=(3,)),
    "Z2xZ4": dict(moduli=[2, 4], H=[(0, 0), (1, 0), (0, 1), (1, 1)],
                  Lambda=[(0, 0), (0, 2)],
                  T=[(0, 0), (1, 0), (0, 2), (1, 2)], K=[(0, 2)],
                  images=[(1, 0), (0, 3)], x=(1, 3)),
}

# the interval [-2, 2] in Z and the planar domain of the CLI tests, each
# with a witness H (H - H inside the domain), a periodic packing and x
LATTICE = {
    "Z": dict(d=1, domain=[(c,) for c in range(-2, 3)], H=[(0,), (1,), (2,)],
              basis=[[3]], residues=[(0,)], x=(3,)),
    "Z2": dict(d=2, domain=[(0, 0), (0, 1), (0, -1), (1, 0), (-1, 0),
                            (1, -1), (-1, 1)],
               H=[(0, 0), (0, 1), (1, 0)], basis=[[1, 1], [2, -1]],
               residues=[(0, 0)], x=(3, 0)),
}


def _spellings(rank, moduli=None):
    out = {"tuple": tuple, "list": list,
           "numpy-row": lambda x: np.array(x, dtype=np.int64)}
    if rank == 1:
        out["int"] = lambda x: x[0]
        out["np.int64"] = lambda x: np.int64(x[0])
    if moduli is not None:
        out["unreduced"] = lambda x: tuple(c + 3 * m for c, m in zip(x, moduli))
    return out


def _setup(data):
    G = make_group(data["moduli"])
    return G, difference_set(G, data["H"])


def _each(sp, xs):
    return [sp(x) for x in xs]


def _check_packing(data, sp):
    G, dom = _setup(data)
    clash = [data["Lambda"][0], data["H"][1]]
    return (check_packing_set(G, dom, _each(sp, data["Lambda"])),
            check_packing_set(G, dom, _each(sp, clash)))


def _quotient_project(data, sp):
    G, _ = _setup(data)
    _, project = quotient_group(G, subgroup_generated(G, data["K"]))
    return project(sp(data["x"]))


def _endomorphism_images(data, sp):
    G, _ = _setup(data)
    phi = endomorphism(G, _each(sp, data["images"]))
    return [phi(y) for y in G.elements()]


def _group_function(data, sp):
    G, _ = _setup(data)
    f = indicator(G, data["H"])
    return f(sp(data["x"])), f(sp(data["H"][1]))


def _find_spectrum(data, sp):
    G, _ = _setup(data)
    search = find_spectrum(G, _each(sp, data["H"]))
    return search.candidate, search.nodes


# name -> (reads data and a spelling, whether it is a membership test);
# from_dict takes its elements as dict keys, which are never lists or rows
FINITE_CASES = {
    "symmetric_domain": lambda data, sp: symmetric_domain(
        _setup(data)[0], _each(sp, _setup(data)[1].sorted_elements())),
    "difference_set": lambda data, sp: difference_set(
        _setup(data)[0], _each(sp, data["H"])),
    "subgroup_generated": lambda data, sp: subgroup_generated(
        _setup(data)[0], _each(sp, data["K"])).elements,
    "quotient_group.project": _quotient_project,
    "endomorphism.images": _endomorphism_images,
    "endomorphism.phi": lambda data, sp: endomorphism(
        _setup(data)[0], data["images"])(sp(data["x"])),
    "apply_endomorphism": lambda data, sp: apply_endomorphism(
        _setup(data)[0], data["images"], sp(data["x"])),
    "GroupFunction.__call__": _group_function,
    "DualFunction.__call__": lambda data, sp: dft(
        indicator(_setup(data)[0], data["H"]))(sp(data["x"])),
    "from_dict": lambda data, sp: from_dict(
        _setup(data)[0], {sp(data["x"]): 2.0}).values.tolist(),
    "indicator": lambda data, sp: indicator(
        _setup(data)[0], _each(sp, data["H"])).values.tolist(),
    "check_packing_set": _check_packing,
    "packing_bound": lambda data, sp: packing_bound(
        *_setup(data), _each(sp, data["Lambda"])),
    "tiling_bound": lambda data, sp: tiling_bound(
        *_setup(data), _each(sp, data["H"]), _each(sp, data["Lambda"])),
    "is_spectrum": lambda data, sp: is_spectrum(
        _setup(data)[0], _each(sp, data["H"]), _each(sp, data["T"])).flag,
    "find_spectrum": _find_spectrum,
    "spectral_bound": lambda data, sp: spectral_bound(
        *_setup(data), _each(sp, data["H"]), _each(sp, data["T"])),
}
FINITE_MEMBERSHIP = {
    "SymmetricDomain.__contains__": lambda data, sp: [
        sp(y) in _setup(data)[1] for y in (data["x"], data["H"][1])],
    "Subgroup.__contains__": lambda data, sp: [
        sp(y) in subgroup_generated(_setup(data)[0], data["K"])
        for y in (data["x"], data["K"][0])],
}
HASHABLE = {"tuple", "int", "np.int64", "unreduced"}


def _lattice_domain(data):
    return lattice_domain(data["d"], data["domain"])


LATTICE_CASES = {
    "lattice_domain": lambda data, sp: lattice_domain(
        data["d"], _each(sp, data["domain"])),
    "periodic_set": lambda data, sp: periodic_set(
        data["d"], data["basis"], _each(sp, data["residues"])),
    "witness_zd": lambda data, sp: witness_zd(
        _each(sp, data["H"]), _lattice_domain(data)),
}
LATTICE_MEMBERSHIP = {
    "LatticeDomain.__contains__": lambda data, sp: [
        sp(y) in _lattice_domain(data) for y in (data["x"], data["H"][1])],
    "PeriodicSet.__contains__": lambda data, sp: [
        sp(y) in periodic_set(data["d"], data["basis"], data["residues"])
        for y in (data["x"], data["H"][1])],
}


def _spelled_params():
    for gname, data in FINITE.items():
        spellings = _spellings(len(data["moduli"]), data["moduli"])
        for cname, case in {**FINITE_CASES, **FINITE_MEMBERSHIP}.items():
            for sname, sp in spellings.items():
                if cname == "from_dict" and sname not in HASHABLE:
                    continue
                yield pytest.param(case, data, sp,
                                   id=f"{cname}-{gname}-{sname}")
    for gname, data in LATTICE.items():
        for cname, case in {**LATTICE_CASES, **LATTICE_MEMBERSHIP}.items():
            for sname, sp in _spellings(data["d"]).items():
                yield pytest.param(case, data, sp,
                                   id=f"{cname}-{gname}-{sname}")


@pytest.mark.parametrize("case, data, sp", list(_spelled_params()))
def test_every_spelling_reads_the_same_element(case, data, sp):
    assert case(data, sp) == case(data, tuple)


def _wrong_rank_params():
    too_long = lambda x: x + (0,)
    bare = lambda x: x[0]
    for gname, data in {**FINITE, **LATTICE}.items():
        rank = data.get("d") or len(data["moduli"])
        lattice = gname in LATTICE
        wrong = {"too-long": too_long}
        if rank > 1:
            wrong["bare-int"] = bare
        cases = LATTICE_CASES if lattice else FINITE_CASES
        members = LATTICE_MEMBERSHIP if lattice else FINITE_MEMBERSHIP
        for wname, sp in wrong.items():
            for cname, case in cases.items():
                yield pytest.param(case, data, sp, False,
                                   id=f"{cname}-{gname}-{wname}")
            for cname, case in members.items():
                yield pytest.param(case, data, sp, True,
                                   id=f"{cname}-{gname}-{wname}")


@pytest.mark.parametrize("case, data, sp, membership",
                         list(_wrong_rank_params()))
def test_wrong_rank_is_rejected(case, data, sp, membership):
    if membership:
        assert case(data, sp) == [False, False]
    else:
        with pytest.raises(ValueError):
            case(data, sp)


def test_membership_reduces_coordinates():
    G = make_group([8])
    dom = symmetric_domain(G, [0, 1, 7])
    K = subgroup_generated(G, [4])
    assert (9,) in dom and 9 in dom and np.int64(-1) in dom
    assert 12 in K and [4] in K and 2 not in K
