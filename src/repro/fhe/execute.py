"""Run IR programs on the functional CKKS layer.

The chip simulator prices a :class:`~repro.ir.Program`; this module runs
the same program on a :class:`~repro.fhe.ckks.CkksContext`, so one op
stream is both what is priced and what is executed.

Values live in a *state dict*.  An op's result takes over the state key
of the first operand whose last use is that op, and the other operands
that die there leave the dict, so a chain program keeps a fixed set of
keys - what the checkpointing
:class:`~repro.reliability.recovery.RecoveringExecutor` snapshots at
step boundaries.  Values an ``OUTPUT`` emits never die.

Per kind: ``INPUT`` values are put in the dict by the caller.  A
``PMULT`` immediately followed by the ``RESCALE`` of its result is one
``ctx.pmult``; a lone ``PMULT`` is ``ctx.pmult_deferred``.  Rotations
take their amount from ``op.steps`` and their hint from
``keys[op.steps]`` (hint ids are reuse handles shared across amounts);
``MULT`` and ``CONJUGATE`` use ``keys[op.hint_id]``; ``PMULT`` uses
``plaintexts[op.plaintext_id]``.  ``HOIST_MODUP`` builds a
:class:`~repro.fhe.hoisting.HoistedRotator` for its ``ROTATE_HOISTED``
ops.  ``repeat > 1`` prices several independent ops as one and has no
single functional meaning, so it raises
:class:`~repro.reliability.errors.ScheduleError` - except on
``ROTATE_HOISTED``, where the hoisting pass batches only same-source,
same-amount members and renames their consumers to the batch's result
(a value merge), so one rotation computes it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import ir
from repro.core.cost import op_cost
from repro.fhe.hoisting import HoistedRotator
from repro.reliability.errors import ScheduleError


@dataclass(frozen=True)
class _Instr:
    """One executable unit: an op, or a PMULT with its fused RESCALE."""

    ops: tuple[ir.HomOp, ...]
    args: tuple[str, ...]   # state keys of the operands
    out: str                # state key of the result
    drop: tuple[str, ...]   # keys of operands that die here


def _lower(ops: list[ir.HomOp], bind: dict[str, str]) -> list[_Instr]:
    """Resolve operands to state keys and deaths to drops.  A value is
    the index of the op defining it, so redefined names resolve the way
    they execute."""
    defs: dict[str, int] = {}
    uses: list[tuple[int, ...]] = []
    last: dict[int, int] = {}    # value -> index of its last consumer
    kept: set[int] = set()       # values an OUTPUT emits
    for i, op in enumerate(ops):
        if op.repeat > 1 and op.kind != ir.ROTATE_HOISTED:
            raise ScheduleError("a batched op (repeat > 1) has no single "
                                "functional meaning", op=op.result,
                                repeat=op.repeat)
        if op.kind in (ir.ROTATE, ir.ROTATE_HOISTED) and op.steps is None:
            raise ScheduleError("rotation without an amount (steps)",
                                op=op.result)
        missing = [name for name in op.operands if name not in defs]
        if missing:
            raise ScheduleError("operand has no producer", op=op.result,
                                operand=missing[0])
        uses.append(tuple(defs[name] for name in op.operands))
        if op.kind == ir.OUTPUT:
            kept.update(uses[i])
            continue
        last.update((d, i) for d in uses[i])
        defs[op.result] = i

    key: dict[int, str] = {}
    live: set[str] = set()
    instrs: list[_Instr] = []
    i = 0
    while i < len(ops):
        op = ops[i]
        fused = (op.kind == ir.PMULT and i + 1 < len(ops)
                 and ops[i + 1].kind == ir.RESCALE
                 and ops[i + 1].operands == (op.result,)
                 and last.get(i) == i + 1 and i not in kept)
        group = tuple(ops[i:i + 1 + fused])
        args = tuple(key[d] for d in uses[i])
        dying = [d for d in dict.fromkeys(uses[i])
                 if op.kind != ir.OUTPUT and last[d] == i and d not in kept]
        if op.kind == ir.OUTPUT:
            out = args[0]
        elif op.kind == ir.INPUT:
            out = bind.get(op.result, op.result)
        elif dying:
            out = key[dying[0]]
        else:
            out = op.result if op.result not in live else f"{op.result}@{i}"
        drop = tuple(key[d] for d in dying if key[d] != out)
        live.difference_update(drop)
        live.add(out)
        i += len(group)
        key[i - 1] = out
        instrs.append(_Instr(group, args, out, drop))
    return instrs


def _run(ins: _Instr, ctx, state: dict, keys, plaintexts,
         outputs: dict | None = None) -> None:
    op = ins.ops[0]
    kind = op.kind
    if kind == ir.INPUT:
        if ins.out not in state:
            raise ScheduleError("program input is not bound in the state",
                                input=op.result, key=ins.out)
        return
    a = [state[k] for k in ins.args]
    if kind == ir.OUTPUT:
        if outputs is not None:
            outputs[op.operands[0]] = a[0]
        return
    if kind == ir.PMULT:
        pmult = ctx.pmult if len(ins.ops) == 2 else ctx.pmult_deferred
        result = pmult(a[0], plaintexts[op.plaintext_id])
    elif kind == ir.RESCALE:
        result = ctx.rescale(a[0])
    elif kind == ir.ADD:
        result = ctx.add(a[0], a[1])
    elif kind == ir.MULT:
        result = ctx.multiply(a[0], a[1], keys[op.hint_id])
    elif kind == ir.ROTATE:
        result = ctx.rotate(a[0], op.steps, keys[op.steps])
    elif kind == ir.CONJUGATE:
        result = ctx.conjugate(a[0], keys[op.hint_id])
    elif kind == ir.HOIST_MODUP:
        result = HoistedRotator(ctx, a[0], alpha=ctx.params.alpha)
    else:  # ROTATE_HOISTED: operands are (raised, source)
        result = a[0].rotate(op.steps, keys[op.steps])
    for k in ins.drop:
        del state[k]
    state[ins.out] = result


def execute(program: ir.Program, ctx, inputs: dict, keys=None,
            plaintexts=None) -> dict:
    """Run ``program`` from ``inputs`` (``INPUT`` name -> ciphertext);
    returns what its ``OUTPUT`` ops emit, keyed by value name, in order."""
    state = dict(inputs)
    outputs: dict = {}
    for ins in _lower(program.ops, {}):
        _run(ins, ctx, state, keys, plaintexts, outputs)
    return outputs


def output_keys(program: ir.Program,
                bind: dict[str, str] | None = None) -> dict[str, str]:
    """Where :func:`program_steps` leaves each value an ``OUTPUT`` emits:
    value name -> its state key once the steps have run.  A value is not
    always under its own name, since a result takes over the key of an
    operand that dies at its op."""
    return {ins.ops[0].operands[0]: ins.out
            for ins in _lower(program.ops, bind or {})
            if ins.ops[0].kind == ir.OUTPUT}


def loads_operand(op: ir.HomOp) -> bool:
    """The default step start: an op that fetches a hint or plaintext."""
    return op.hint_id is not None or op.plaintext_id is not None


def program_steps(program: ir.Program, cfg, keys=None, plaintexts=None, *,
                  bind: dict[str, str] | None = None,
                  starts=loads_operand) -> tuple[list, list[float]]:
    """Cut ``program`` into ``(name, fn)`` steps; each ``fn(ctx, state)``
    runs its ops in place on the state dict.

    A step begins at every op ``starts`` selects (a fused RESCALE stays
    with its PMULT); earlier ops join the first step, and no step begins
    while a ``HOIST_MODUP``'s raised digits are live, so every step
    boundary holds only ciphertexts a checkpoint can seal.  It is named
    ``tag/handle`` after that op, the handle being the last path segment
    of its plaintext or hint id, else its kind (just one of the two when
    the other is empty or the same).  ``bind`` maps ``INPUT`` names to
    the caller's state keys.  Returns the steps and each one's price:
    the sum of its ops' compute cycles on ``cfg``.
    """
    groups = []  # [op that begins the step, its instructions]
    raised: set[str] = set()  # state keys holding a HoistedRotator
    for ins in _lower(program.ops, bind or {}):
        op = ins.ops[0]
        if not groups or starts(op) and starts(groups[-1][0]) \
                and not raised:
            groups.append([op, []])
        elif starts(op) and not starts(groups[-1][0]):
            groups[-1][0] = op
        groups[-1][1].append(ins)
        raised.difference_update((*ins.drop, ins.out))
        if op.kind == ir.HOIST_MODUP:
            raised.add(ins.out)

    def step(instrs):
        def fn(ctx, state):
            for ins in instrs:
                _run(ins, ctx, state, keys, plaintexts)
        return fn

    steps, cycles = [], []
    for head, instrs in groups:
        handle = (head.plaintext_id or head.hint_id
                  or head.kind).rsplit("/", 1)[-1]
        name = (f"{head.tag}/{handle}" if head.tag not in ("", handle)
                else handle)
        steps.append((name, step(instrs)))
        cycles.append(sum(op_cost(cfg, op, program.degree).compute_cycles(cfg)
                          for ins in instrs for op in ins.ops))
    return steps, cycles
