"""The packed coefficient layout: norms, views, JSONL and pinned synthesis."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gevreykit import groups
from gevreykit.duality import growth_sequence
from gevreykit.errors import ResourceError
from gevreykit.fourier import CoefficientField, diagonal_at, hs_norm
from gevreykit.gevrey import synthesize_gevrey
from gevreykit.groups import GroupSpec, enumerate_dual
from gevreykit.serialize import field_from_jsonl, field_to_jsonl

CATALOGS = {
    "T1": enumerate_dual(GroupSpec("torus", 1), 20.0),
    "T2": enumerate_dual(GroupSpec("torus", 2), 6.0),
    "SU2": enumerate_dual(GroupSpec("su2"), 7.0),
    "SO3": enumerate_dual(GroupSpec("so3"), 7.0),
}


@st.composite
def fields(draw):
    """A field with random blocks, scales and missing classes."""
    cat = CATALOGS[draw(st.sampled_from(sorted(CATALOGS)))]
    seed = draw(st.integers(0, 2**32 - 1))
    keep = draw(st.lists(st.booleans(), min_size=len(cat), max_size=len(cat)))
    scale = draw(st.sampled_from([1e-300, 1e-150, 1e-5, 1.0, 1e5, 1e150, 1e300]))
    rng = np.random.default_rng(seed)
    out = CoefficientField(cat)
    for rep, k in zip(cat, keep):
        if k:
            shape = (rep.dim, rep.dim)
            out[rep.label] = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return out


@settings(max_examples=60, deadline=None)
@given(fields())
def test_hs_norms_match_per_block_reference(f):
    hs = f.hs_norms()
    for i, rep in enumerate(f.catalog):
        ref = hs_norm(f[rep.label]) if rep.label in f else 0.0
        assert abs(hs[i] - ref) <= 1e-15 * ref
        assert (hs[i] == 0.0) == (ref == 0.0)


@settings(max_examples=60, deadline=None)
@given(fields())
def test_jsonl_round_trip_bit_exact(f):
    g = field_from_jsonl(field_to_jsonl(f), f.catalog)
    assert g.labels() == f.labels()
    assert np.array_equal(g.present, f.present)
    assert f.data.tobytes() == g.data.tobytes()


def test_blocks_are_read_only_views():
    cat = CATALOGS["SU2"]
    f = synthesize_gevrey(cat, 2.0, 1.0, "random_phase", seed=3)
    for label in f.labels():
        with pytest.raises(ValueError):
            f[label][0, 0] = 1.0
        assert np.shares_memory(f[label], f.data)
    view = f[(2,)]
    f[(2,)] = np.eye(3)
    assert np.array_equal(view, np.eye(3))


def test_field_copies_are_independent():
    cat = CATALOGS["SO3"]
    f = synthesize_gevrey(cat, 2.0, 1.0, "dense")
    g = f.copy()
    g[(1,)] = np.zeros((3, 3))
    assert not np.array_equal(f[(1,)], g[(1,)])
    assert f.scaled(2.0).add(f, 1.0, -2.0).hs_norms().max() == 0.0


def test_normal_stream_does_not_depend_on_chunking():
    sizes = [1, 4, 9, 1, 16, 25]
    whole = np.random.default_rng(11).standard_normal(2 * sum(sizes))
    rng = np.random.default_rng(11)
    parts = [rng.standard_normal(2 * n) for n in sizes]
    assert np.array_equal(whole, np.concatenate(parts))


# sha256 of field_to_jsonl text, recorded before the packed layout:
# synthesize_gevrey(cat, 1, 1, profile, seed=7) and
# growth_sequence(cat, 2, 1, profile, seed=7) on the classify catalogs.
PINNED = {
    ("T1", "diagonal", "synthesize"): "9fdf4dae151972bf88719e12c64e392b26d3955c6a01e3f818e8174f786fe72c",
    ("T1", "diagonal", "growth"): "a325431a991a867e164690b8a53eb8430462f2a0c4d106d30a30e279051fb84b",
    ("T1", "dense", "synthesize"): "9fdf4dae151972bf88719e12c64e392b26d3955c6a01e3f818e8174f786fe72c",
    ("T1", "dense", "growth"): "a325431a991a867e164690b8a53eb8430462f2a0c4d106d30a30e279051fb84b",
    ("T1", "random_phase", "synthesize"): "8dbded0323b4535f355fc3ba55e10188bd4d09f5b7998b0f91fc34f56f361e94",
    ("T1", "random_phase", "growth"): "b55147d077c3b51830e3a610fc2dee3452c78125b13854be181eb3e620a7c88e",
    ("T2", "diagonal", "synthesize"): "2e5b4774e7da51751d9f4803182845da61c187889142b11346d86e376beb2c89",
    ("T2", "diagonal", "growth"): "76fd8d2915bbcd69a38194cde96fb83dc864feff85a97f26d2788b25b8e86e4f",
    ("T2", "dense", "synthesize"): "2e5b4774e7da51751d9f4803182845da61c187889142b11346d86e376beb2c89",
    ("T2", "dense", "growth"): "76fd8d2915bbcd69a38194cde96fb83dc864feff85a97f26d2788b25b8e86e4f",
    ("T2", "random_phase", "synthesize"): "9ba963209c546f3e048505619e457138ad1b890e1ab68aac66431b7d557e5810",
    ("T2", "random_phase", "growth"): "b96e2d92b54d8c1c104596d08e5854c7cf1e1cbaec76c671406ae3e31716929d",
    ("SU2", "diagonal", "synthesize"): "561270e70b76b9c6099bc8d82bd0442c157d1d69a70722e759ec97c40523abc9",
    ("SU2", "diagonal", "growth"): "9f04a365ba973851cb2745c935cc63130e4eb73ebf97138c0ac1a40844d10f3c",
    ("SU2", "dense", "synthesize"): "36c0fa91b43c73ffe7501d1606bf50bee9d913fd06f5249d9811b5e218395847",
    ("SU2", "dense", "growth"): "963afe02a9a36f520860df702afbb808f44adf08eefea2f6664322913d71a9d0",
    ("SU2", "random_phase", "synthesize"): "455135a9966a285d0e30b247df0de952bfb9762185ab1e3636cbd804c71093b4",
    ("SU2", "random_phase", "growth"): "37a7dc3c59e169fe1b2c15c10b75d62a5256a9368226805953350a6d0b5c209d",
    ("SO3", "diagonal", "synthesize"): "f26b40ba4ba9e6df0e336286a9fae20de13cded912f1934df84e04755eea2a53",
    ("SO3", "diagonal", "growth"): "2d59adf725362b8c0b372f0e8c25c4d8eace5232bf6cc535eef51490205ccf7c",
    ("SO3", "dense", "synthesize"): "6824296a0a4e6fd436017afc3c3efd8fb3b88c96db116e535f7019c8a737bb90",
    ("SO3", "dense", "growth"): "02a0a5121bbde14e270738f652472feef8270c8d0a251b6fe1fcc389aec61e49",
    ("SO3", "random_phase", "synthesize"): "f6c8c924413ec6e9b9f65cb61b216d41501e7525630d9c3c7bfbaebcc5abe72c",
    ("SO3", "random_phase", "growth"): "415d89e8a7acfc0c556b7e680e7c0fe79df06722405ee0907195f62165242537",
}
PINNED_CATALOGS = {
    "T1": (GroupSpec("torus", 1), 1000.5),
    "T2": (GroupSpec("torus", 2), 30.5),
    "SU2": (GroupSpec("su2"), 16.1),
    "SO3": (GroupSpec("so3"), 16.1),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_synthesis_text_is_pinned(key):
    group, profile, kind = key
    cat = enumerate_dual(*PINNED_CATALOGS[group])
    if kind == "synthesize":
        f = synthesize_gevrey(cat, 1.0, 1.0, profile, seed=7)
    else:
        f = growth_sequence(cat, 2.0, 1.0, profile, seed=7)
    assert hashlib.sha256(field_to_jsonl(f).encode()).hexdigest() == PINNED[key]


def test_field_entry_budget_refuses_before_allocating(monkeypatch):
    builds = (CoefficientField, CoefficientField.identity,
              lambda cat: synthesize_gevrey(cat, 2.0, 1.0, "diagonal"),
              lambda cat: growth_sequence(cat, 2.0, 1.0, "random_phase"),
              lambda cat: field_from_jsonl("", cat))
    for cat in CATALOGS.values():
        entries = int(cat.offsets[-1])
        monkeypatch.setattr(groups, "FIELD_ENTRY_BUDGET", entries)
        for build in builds:
            build(cat)
        monkeypatch.setattr(groups, "FIELD_ENTRY_BUDGET", entries - 1)
        for build in builds:
            with pytest.raises(ResourceError, match="%d entries" % entries):
                build(cat)
        # catalogs themselves stay admitted
        assert len(enumerate_dual(cat.spec, cat.cutoff)) == len(cat)


def test_diagonal_positions_are_the_block_diagonals():
    for cat in CATALOGS.values():
        row, col, _ = cat.entry_index
        keep = np.arange(len(cat)) % 3 != 1
        want = np.flatnonzero((row == col) & np.repeat(keep, np.diff(cat.offsets)))
        assert np.array_equal(diagonal_at(cat, np.flatnonzero(keep)), want)
        assert np.array_equal(np.flatnonzero(CoefficientField.identity(cat).data), np.flatnonzero(row == col))
