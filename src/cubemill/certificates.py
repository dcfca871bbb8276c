"""The line-oriented text of contraction certificates.

A certificate is a tree of ``surgery.Split`` nodes over ``surgery.MoveChain``
leaves, written one move or node line at a time. Writing and reading go depth
first on an explicit stack, and reading is one pass over the non-blank lines,
so a deep certificate costs memory, not recursion. Parse failures raise
:class:`FormatError` carrying the line number. ``formats`` exports both
functions under its own name.
"""

from .errors import FormatError
from .surgery import BacktrackRemoval, MoveChain, Rotate, SquareSlide, Split


def serialize_certificate(cert):
    """Line-oriented move text for a contraction certificate."""
    out = []
    _emit_cert(cert, out)
    return "\n".join(out) + "\n"


def _emit_cert(cert, out):
    """Write depth first on an explicit stack, so deep certificates are
    bounded by memory and not by the recursion limit. The stack holds nodes
    still to write and the literal lines that follow them."""
    todo = [cert]
    while todo:
        cert = todo.pop()
        if isinstance(cert, str):
            out.append(cert)
        elif isinstance(cert, MoveChain):
            out.append("chain")
            for mv in cert.moves:
                if isinstance(mv, BacktrackRemoval):
                    out.append(f"backtrack {mv.j}")
                elif isinstance(mv, SquareSlide):
                    out.append(f"slide {mv.j} {mv.w} {mv.square}")
                elif isinstance(mv, Rotate):
                    out.append(f"rotate {mv.k}")
                else:
                    raise ValueError(f"unknown move {mv!r}")
            out.append("end")
        elif isinstance(cert, Split):
            out.append(
                f"split rotate {cert.rotate} mirror {cert.mirror_index} "
                f"support {cert.support_index}"
            )
            out.append("bridge " + " ".join(str(v) for v in cert.bridge))
            out.append("projected " + " ".join(str(v) for v in cert.projected))
            out.append("left")
            todo += ("end", cert.right, "right", cert.left)
        else:
            raise ValueError(f"unknown certificate node {cert!r}")


_EOF = "unexpected end of certificate"


def parse_certificate(text):
    """Parse certificate text in one pass over its non-blank lines.

    Open splits wait on an explicit stack, so the nesting depth is bounded by
    memory and not by the recursion limit.
    """
    rows = []
    for n, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        body = raw.strip()
        if body:
            rows.append((n, body))
    it = iter(rows)

    def take():
        row = next(it, None)
        if row is None:
            raise FormatError(_EOF)
        return row

    pending = []  # open splits: [header fields, left child or None]
    while True:
        n, body = take()
        head = body.split()
        if head[0] == "split":
            if (
                len(head) != 7
                or head[1] != "rotate"
                or head[3] != "mirror"
                or head[5] != "support"
            ):
                raise FormatError("expected 'split rotate K mirror M support S'", line=n)
            try:
                fields = [int(head[2]), int(head[4]), int(head[6])]
            except ValueError:
                raise FormatError("expected integers", line=n) from None
            for word in ("bridge", "projected"):
                n, body = take()
                parts = body.split()
                if parts[0] != word or len(parts) < 2:
                    raise FormatError(f"expected a {word} line", line=n)
                try:
                    fields.append(tuple([int(x) for x in parts[1:]]))
                except ValueError:
                    raise FormatError("expected integers", line=n) from None
            n, body = take()
            if body != "left":
                raise FormatError("expected 'left'", line=n)
            pending.append([fields, None])
            continue
        if head[0] != "chain":
            raise FormatError(f"expected 'chain' or 'split', got {head[0]!r}", line=n)
        if len(head) != 1:
            raise FormatError("chain takes no arguments", line=n)
        moves = []
        for n, body in it:  # the move lines: read here, not through take()
            parts = body.split()
            word = parts[0]
            if word == "end":
                if len(parts) != 1:
                    raise FormatError("end takes no arguments", line=n)
                break
            try:
                if word == "backtrack" and len(parts) == 2:
                    mv = BacktrackRemoval(int(parts[1]))
                elif word == "slide" and len(parts) == 4:
                    mv = SquareSlide(int(parts[1]), int(parts[2]), int(parts[3]))
                elif word == "rotate" and len(parts) == 2:
                    mv = Rotate(int(parts[1]))
                else:
                    raise FormatError(f"unknown move {body!r}", line=n)
            except ValueError:
                raise FormatError("expected integers", line=n) from None
            moves.append(mv)
        else:
            raise FormatError(_EOF)
        node = MoveChain(tuple(moves))
        while pending and pending[-1][1] is not None:
            fields, left = pending.pop()
            n, body = take()
            if body != "end":
                raise FormatError("expected 'end'", line=n)
            node = Split(*fields, left, node)
        if not pending:
            break
        pending[-1][1] = node
        n, body = take()
        if body != "right":
            raise FormatError("expected 'right'", line=n)
    trailing = next(it, None)
    if trailing is not None:
        raise FormatError("trailing content after certificate", line=trailing[0])
    return node
