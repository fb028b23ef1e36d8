"""A synthetic substrate guest: the workload the memory fast-path
equivalence test runs batched on ``VirtualMemory`` and per op on
``ReferenceMemory``.
"""

from repro.program.blocks import BasicBlock, BlockBuilder
from repro.program.callgraph import CallGraph
from repro.program.process import Process, ProgramLike


class _GuestLoop(ProgramLike):
    """Synthetic guest: per iteration a call, an allocation, a
    straight-line run of memory traffic (clear the buffer, stamp a
    header, scan/branch, copy half the buffer forward), and a free —
    the instruction mix of the service workloads, reduced to a counted
    loop.

    The straight-line run between ``malloc`` and ``free`` is pre-decoded
    into one :class:`~repro.program.blocks.BasicBlock` per distinct
    buffer size and dispatched with ``exec_block`` — the
    batched-interpretation path (the per-instruction twin is held
    equivalent by ``tests/program/test_block_equivalence.py``, and on
    the reference address space by ``test_fastpath_equivalence.py``).

    Guest instructions are counted at word granularity, exactly like
    :meth:`~repro.program.cost.CostModel.mem_cost` charges them: a
    ``size``-byte fill is ``size/8`` word stores, a copy is loads plus
    stores, even though the substrate executes each as one batched call
    (``BasicBlock.instructions`` is the per-block count).  ``call``,
    ``malloc`` and ``free`` count one instruction each."""

    def __init__(self) -> None:
        graph = CallGraph(entry="main")
        graph.add_call_site("main", "work")
        graph.add_call_site("work", "malloc", "buf")
        self.graph = graph.freeze()
        self._blocks = tuple(self._build_block(64 + k * 32)
                             for k in range(7))
        #: Instructions per iteration, by size class: call + malloc +
        #: free + the block's word-granular count.
        self._iter_instructions = tuple(
            3 + block.instructions for block in self._blocks)

    @staticmethod
    def _build_block(size: int) -> BasicBlock:
        builder = BlockBuilder()
        builder.fill(0, 0, size, 0)
        builder.write(0, 0, b"\x2a" * 16)
        builder.branch_on(builder.read(0, 0, 8))
        builder.write_arg(0, 8, 1)  # store loop counter at buf+8
        slot = builder.read_int(0, 8)
        builder.branch_on(slot)
        builder.copy(0, size // 2, 0, 0, size // 2)
        builder.write_value(0, 16, slot)
        builder.compute(5)
        return builder.build()

    def instruction_count(self, iters: int) -> int:
        """Exact guest instructions ``main(iters)`` executes."""
        per_cycle = sum(self._iter_instructions)
        full, rest = divmod(iters, len(self._iter_instructions))
        return full * per_cycle + sum(self._iter_instructions[:rest])

    def main(self, process: Process, iters: int) -> int:
        work = self._work
        for i in range(iters):
            process.call("work", work, i)
        return self.instruction_count(iters)

    def _work(self, process: Process, i: int) -> None:
        slot = i % 7
        buf = process.malloc(64 + slot * 32, site="buf")
        process.exec_block(self._blocks[slot], buf, i)
        process.free(buf)
