"""The adoption contract of the datapath skeleton (repro.sim.datapath).

A router is clocked by at most one datapath, of either kind; a GT datapath
clocks routers of one slot-table size.  A refused datapath adopts nothing.
"""

from __future__ import annotations

import pytest

from repro.baseline.router import PacketDatapath, PacketSwitchedRouter
from repro.common import ConfigurationError
from repro.noc.gt_network import SlotTableRouter, TdmaDatapath

KINDS = {"gt": (TdmaDatapath, SlotTableRouter), "packet": (PacketDatapath, PacketSwitchedRouter)}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_a_router_adopted_by_a_second_datapath_raises(kind):
    datapath_class, router_class = KINDS[kind]
    taken, fresh = router_class("taken"), router_class("fresh")
    first = datapath_class("first", [taken])
    with pytest.raises(ConfigurationError, match="'taken' already has a datapath"):
        datapath_class("second", [fresh, taken])
    assert taken.datapath is first and fresh.datapath is None


def test_a_tdma_datapath_over_two_slot_table_sizes_raises():
    routers = [SlotTableRouter("a", slots=4), SlotTableRouter("b", slots=8)]
    with pytest.raises(ConfigurationError, match="one slot-table size"):
        TdmaDatapath("mixed", routers)
    assert [router.datapath for router in routers] == [None, None]
