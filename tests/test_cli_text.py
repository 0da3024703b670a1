"""The printed output of `partition --refine` and `construct`, pinned.

Each case is a corpus graph with maximum degree at least 3 and a maximal
irredundant set that leaves an undominated or a shared zone; `construct`
runs at every k in Delta-2..Delta+1. The texts pin the zones, the private
neighbourhoods, nhat in closure order, the witnesses, the refinement
summaries and the isolating sets byte for byte, whatever the machinery
holds them in.
"""

import pytest

from isobound import parse_graph6
from isobound.cli import main

PARTITION_TEXT = {
    ('EsXo', '0,3'): """\
i: 0 3
u: 4
p: 1 2 5
s: -
z: -
a: 0 3
q: 3
b: 0
nset: -
m: 0
nhat: -
pn[0]: 1 2
pn[3]: 5
witness u=4 x=0 pairs=[(1,2)<-(3,3)]
pairs: s=0 anchor=None x=[]
twins: isolated=0 twin=0 x=[]
""",
    ('FqGV?', '1,6'): """\
i: 1 6
u: 4 5
p: 2 3
s: 0
z: -
a: 1 6
q: -
b: 1 6
nset: 1 6
m: -
nhat: 3 2
pn[1]: 3
pn[6]: 2
witness u=4 x=6 pairs=[]
witness u=5 x=1 pairs=[]
pairs: s=0 anchor=None x=[]
twins: isolated=1 twin=0 x=[0]
""",
    ('Dqo', '0,1'): """\
i: 0 1
u: -
p: 2 3
s: 4
z: -
a: 0 1
q: 0 1
b: -
nset: -
m: -
nhat: -
pn[0]: 2
pn[1]: 3
pairs: s=0 anchor=None x=[]
twins: isolated=1 twin=0 x=[4]
""",
    ('Fqjjo', '2,5'): """\
i: 2 5
u: 3
p: 1 6
s: 0 4
z: -
a: 2 5
q: -
b: 2 5
nset: 2 5
m: -
nhat: 6 1
pn[2]: 6
pn[5]: 1
witness u=3 x=2 pairs=[]
pairs: s=0 anchor=None x=[]
twins: isolated=1 twin=0 x=[0]
""",
    ('EqJ?', '0,2,3'): """\
i: 0 2 3
u: -
p: 4 5
s: 1
z: 3
a: 0 2
q: 0 2
b: -
nset: -
m: -
nhat: -
pn[0]: 5
pn[2]: 4
pn[3]: 3
pairs: s=0 anchor=None x=[]
twins: isolated=0 twin=0 x=[]
""",
}

CONSTRUCT_TEXT = {
    ('EsXo', '0,3', 1): """\
regime: delta_minus_2
t: 1 5
size: 2  bound: 3/1  s: None
bound satisfied: True
isolating verified: True
""",
    ('EsXo', '0,3', 2): """\
regime: delta_minus_1
t: 1 3
size: 2  bound: 2/1  s: 0
bound satisfied: True
isolating verified: True
""",
    ('EsXo', '0,3', 3): """\
regime: delta
t: 0 3
size: 2  bound: 2/1  s: None
bound satisfied: True
isolating verified: True
""",
    ('EsXo', '0,3', 4): """\
regime: delta_plus_1
t: -
size: 0  bound: 2/1  s: None
bound satisfied: True
isolating verified: True
""",
    ('FqGV?', '1,6', 1): """\
regime: delta_minus_2
t: 0 2 3
size: 3  bound: 3/1  s: None
bound satisfied: True
isolating verified: True
""",
    ('FqGV?', '1,6', 2): """\
regime: delta_minus_1
t: 2 3
size: 2  bound: 2/1  s: 0
bound satisfied: True
isolating verified: True
""",
    ('FqGV?', '1,6', 3): """\
regime: delta
t: 2 3
size: 2  bound: 2/1  s: None
bound satisfied: True
isolating verified: True
""",
    ('FqGV?', '1,6', 4): """\
regime: delta_plus_1
t: -
size: 0  bound: 2/1  s: None
bound satisfied: True
isolating verified: True
""",
    ('Dqo', '0,1', 1): """\
regime: delta_minus_2
t: 2 3 4
size: 3  bound: 3/1  s: None
bound satisfied: True
isolating verified: True
""",
    ('Dqo', '0,1', 2): """\
regime: delta_minus_1
t: 0 1
size: 2  bound: 2/1  s: 0
bound satisfied: True
isolating verified: True
""",
    ('Dqo', '0,1', 3): """\
regime: delta
t: 0 1
size: 2  bound: 2/1  s: None
bound satisfied: True
isolating verified: True
""",
    ('Dqo', '0,1', 4): """\
regime: delta_plus_1
t: -
size: 0  bound: 2/1  s: None
bound satisfied: True
isolating verified: True
""",
    ('Fqjjo', '2,5', 2): """\
regime: delta_minus_2
t: 0 1 6
size: 3  bound: 3/1  s: None
bound satisfied: True
isolating verified: True
""",
    ('Fqjjo', '2,5', 3): """\
regime: delta_minus_1
t: 1 6
size: 2  bound: 2/1  s: 0
bound satisfied: True
isolating verified: True
""",
    ('Fqjjo', '2,5', 4): """\
regime: delta
t: 1 6
size: 2  bound: 2/1  s: None
bound satisfied: True
isolating verified: True
""",
    ('Fqjjo', '2,5', 5): """\
regime: delta_plus_1
t: -
size: 0  bound: 2/1  s: None
bound satisfied: True
isolating verified: True
""",
    ('EqJ?', '0,2,3', 1): """\
regime: delta_minus_2
t: 3 4 5
size: 3  bound: 9/2  s: None
bound satisfied: True
isolating verified: True
""",
    ('EqJ?', '0,2,3', 2): """\
regime: delta_minus_1
t: 0 2 3
size: 3  bound: 3/1  s: 0
bound satisfied: True
isolating verified: True
""",
    ('EqJ?', '0,2,3', 3): """\
regime: delta
t: 0 2 3
size: 3  bound: 3/1  s: None
bound satisfied: True
isolating verified: True
""",
    ('EqJ?', '0,2,3', 4): """\
regime: delta_plus_1
t: -
size: 0  bound: 3/1  s: None
bound satisfied: True
isolating verified: True
""",
}


def _run(capsys, tmp_path, g6, argv):
    path = tmp_path / "in.g6"
    path.write_text(g6 + "\n")
    assert main([argv[0], "--g6", str(path)] + argv[1:]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("g6, iset", list(PARTITION_TEXT))
def test_partition_refine_text(capsys, tmp_path, g6, iset):
    out = _run(capsys, tmp_path, g6, ["partition", "--iset", iset, "--refine"])
    assert out == PARTITION_TEXT[(g6, iset)]


@pytest.mark.parametrize("g6, iset, k", list(CONSTRUCT_TEXT))
def test_construct_text(capsys, tmp_path, g6, iset, k):
    out = _run(capsys, tmp_path, g6, ["construct", "--iset", iset, "--k", str(k)])
    assert out == CONSTRUCT_TEXT[(g6, iset, k)]


def test_cases_cover_every_constructive_order():
    for g6, iset in PARTITION_TEXT:
        delta = parse_graph6(g6).max_degree()
        assert delta >= 3
        ks = [k for g, i, k in CONSTRUCT_TEXT if (g, i) == (g6, iset)]
        assert ks == list(range(delta - 2, delta + 2))
