"""Unit tests for entry-method declarations and chares."""

import pytest

from repro.errors import ChareError, EntryMethodError
from repro.machine.knl import build_knl
from repro.mem.block import AccessIntent
from repro.runtime.chare import Chare, NodeGroup
from repro.runtime.entry import entry
from repro.runtime.runtime import CharmRuntime
from repro.sim.environment import Environment
from repro.units import GiB, MiB


def make_runtime(cores=4):
    node = build_knl(Environment(), cores=cores, mcdram_capacity=GiB,
                     ddr_capacity=4 * GiB)
    return CharmRuntime(node)


class Sample(Chare):
    @entry
    def plain(self, x):
        self.seen = x

    @entry(prefetch=True, readwrite=["a"], writeonly=["b"])
    def compute(self):
        yield self.runtime.env.timeout(0.0)

    @entry(readonly=["blocks"])
    def uses_list(self):
        pass


class TestEntryDeclaration:
    def test_specs_collected_on_subclass(self):
        assert set(Sample._entry_specs) == {"plain", "compute", "uses_list"}

    def test_prefetch_flag_and_deps(self):
        spec = Sample._entry_specs["compute"]
        assert spec.prefetch
        assert spec.deps == (("a", AccessIntent.READWRITE),
                             ("b", AccessIntent.WRITEONLY))

    def test_prefetch_without_deps_rejected(self):
        with pytest.raises(EntryMethodError):
            @entry(prefetch=True)
            def bad(self):
                pass

    def test_duplicate_intent_rejected(self):
        with pytest.raises(EntryMethodError):
            @entry(readonly=["a"], readwrite=["a"])
            def bad(self):
                pass

    def test_specs_inherit_and_override(self):
        class Derived(Sample):
            @entry
            def plain(self, x):  # override
                self.seen = x * 2

        assert set(Derived._entry_specs) == {"plain", "compute", "uses_list"}
        assert Derived._entry_specs["plain"].func is not \
            Sample._entry_specs["plain"].func


class TestDepResolution:
    def test_resolves_single_blocks(self):
        rt = make_runtime()
        arr = rt.create_array(Sample, 1)
        chare = arr[(0,)]
        chare.a = chare.declare_block("a", MiB)
        chare.b = chare.declare_block("b", MiB)
        deps = Sample._entry_specs["compute"].resolve_deps(chare)
        assert [(b.name.split(".")[-1], i.value) for b, i in deps] == \
            [("a", "readwrite"), ("b", "writeonly")]

    def test_resolves_block_lists(self):
        rt = make_runtime()
        arr = rt.create_array(Sample, 1)
        chare = arr[(0,)]
        chare.blocks = [chare.declare_block(f"x{i}", MiB) for i in range(3)]
        deps = Sample._entry_specs["uses_list"].resolve_deps(chare)
        assert len(deps) == 3

    def test_missing_attribute_rejected(self):
        rt = make_runtime()
        arr = rt.create_array(Sample, 1)
        with pytest.raises(EntryMethodError):
            Sample._entry_specs["compute"].resolve_deps(arr[(0,)])

    def test_none_attribute_skipped(self):
        rt = make_runtime()
        arr = rt.create_array(Sample, 1)
        chare = arr[(0,)]
        chare.a = None
        chare.b = chare.declare_block("b", MiB)
        deps = Sample._entry_specs["compute"].resolve_deps(chare)
        assert len(deps) == 1

    def test_wrong_type_rejected(self):
        rt = make_runtime()
        arr = rt.create_array(Sample, 1)
        chare = arr[(0,)]
        chare.a = "not a block"
        chare.b = None
        with pytest.raises(EntryMethodError):
            Sample._entry_specs["compute"].resolve_deps(chare)


class TestDepResolutionErrors:
    """Every resolve_deps failure names chare, entry and attribute — these
    errors surface deep in the interception layer, far from the cause."""

    def make_chare(self):
        rt = make_runtime()
        return rt.create_array(Sample, 1)[(0,)]

    def test_missing_attribute_names_the_scene(self):
        chare = self.make_chare()
        with pytest.raises(EntryMethodError, match=r"Sample\.compute.*'a'"):
            Sample._entry_specs["compute"].resolve_deps(chare)

    def test_wrong_type_names_the_scene(self):
        chare = self.make_chare()
        chare.a = 42
        chare.b = None
        with pytest.raises(EntryMethodError,
                           match=r"Sample\.compute.*'a'.*int"):
            Sample._entry_specs["compute"].resolve_deps(chare)

    def test_bad_item_names_scene_and_index(self):
        chare = self.make_chare()
        chare.blocks = [chare.declare_block("x", MiB), "oops"]
        with pytest.raises(
                EntryMethodError,
                match=r"Sample\.uses_list.*'blocks'.*index 1.*str"):
            Sample._entry_specs["uses_list"].resolve_deps(chare)

    def test_generic_iterables_accepted(self):
        """Any non-string iterable of blocks works: tuples, dict views,
        generators — resolution happens once, at message time."""
        chare = self.make_chare()
        blocks = {i: chare.declare_block(f"x{i}", MiB) for i in range(3)}
        spec = Sample._entry_specs["uses_list"]
        chare.blocks = tuple(blocks.values())
        assert len(spec.resolve_deps(chare)) == 3
        chare.blocks = blocks.values()
        assert len(spec.resolve_deps(chare)) == 3
        chare.blocks = (b for b in blocks.values())
        assert len(spec.resolve_deps(chare)) == 3

    def test_string_attribute_is_not_treated_as_iterable(self):
        chare = self.make_chare()
        chare.a = "abc"
        chare.b = None
        with pytest.raises(EntryMethodError, match="str"):
            Sample._entry_specs["compute"].resolve_deps(chare)

    def test_message_time_resolution_sees_reassignment(self):
        """Deps resolve per message, so data-dependent block lists track
        the attribute's value at delivery time, not declaration time."""
        chare = self.make_chare()
        spec = Sample._entry_specs["uses_list"]
        b0 = chare.declare_block("x0", MiB)
        b1 = chare.declare_block("x1", MiB)
        chare.blocks = [b0]
        assert len(spec.resolve_deps(chare)) == 1
        chare.blocks = [b0, b1]
        assert len(spec.resolve_deps(chare)) == 2


class TestChareArray:
    def test_create_1d_from_int(self):
        rt = make_runtime()
        arr = rt.create_array(Sample, 6)
        assert len(arr) == 6
        assert arr[2].index == (2,)

    def test_round_robin_default_placement(self):
        rt = make_runtime(cores=4)
        arr = rt.create_array(Sample, 8)
        pes = [arr[(i,)].pe_id for i in range(8)]
        assert pes == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_unknown_element_rejected(self):
        rt = make_runtime()
        arr = rt.create_array(Sample, 2)
        with pytest.raises(ChareError):
            arr[(9,)]

    def test_empty_array_rejected(self):
        rt = make_runtime()
        with pytest.raises(ChareError):
            rt.create_array(Sample, [])

    def test_declare_block_registers(self):
        rt = make_runtime()
        arr = rt.create_array(Sample, 1)
        block = arr[(0,)].declare_block("grid", 2 * MiB)
        assert block in rt.machine.registry
        assert arr[(0,)].blocks == [block]
        assert block.name == "Sample[0].grid"

    def test_declare_block_on_unbound_chare_rejected(self):
        with pytest.raises(ChareError):
            Sample().declare_block("x", 10)


class TestNodeGroup:
    def test_share_block_get_or_create(self):
        rt = make_runtime()
        group = rt.create_node_group(NodeGroup)
        a1 = group.share_block("k1", MiB)
        a2 = group.share_block("k1", MiB)
        assert a1 is a2
        assert len(rt.machine.registry) == 1
