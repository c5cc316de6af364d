"""Line-oriented serving loop for ``python -m repro serve``.

One command per line on the input stream, one ``ok``/``error`` report per
command on the output stream — a deliberately plain protocol that works
over a pipe, a terminal, or a test harness without any dependency beyond
the standard library.  The shell owns no verb: a line is tokenised into
the request dict its verb's table entry describes, run by
:func:`~repro.service.commands.execute_request` — so every command gets
the service's admission control, snapshot isolation and deadlines, and
the field checks the TCP front end gets — and
printed by one reply renderer.  A ``Busy`` or ``DeadlineExceeded`` is
reported and the loop keeps serving.

Commands (line form, service class, meaning — the verb table, printed)::

{reference}
{also}
"""

from __future__ import annotations

from repro.errors import ProtocolError, ReproError, ServiceClosed
from repro.service.commands import (
    COMMANDS,
    SessionState,
    execute_request,
    line_request,
    reference,
    render_reply,
)
from repro.service.server import DatabaseService

__all__ = ["ServiceShell"]

#: The shell's own words, which are not requests to the service.
_ALSO = (
    "    trace <read verb ...>     the same read, with per-span timings\n"
    "    shutdown                  graceful drain, then exit\n"
    "    help | quit | exit"
)

if __doc__:  # absent under -OO
    __doc__ = __doc__.format(reference=reference(), also=_ALSO)


class ServiceShell:
    """Executes shell commands against a :class:`DatabaseService`.

    ``run()`` drains the input stream; ``handle(line)`` executes one
    command and returns ``False`` when the session should end (making the
    protocol unit-testable without threads or pipes).
    """

    def __init__(self, service: DatabaseService, in_stream, out_stream):
        self.service = service
        self._in = in_stream
        self._out = out_stream
        self._session = SessionState(0)

    def run(self) -> None:
        """Serve until EOF, ``quit``/``shutdown``, or Ctrl-C.

        Every exit path ends in :meth:`drain`: the service refuses new
        requests with a typed :class:`~repro.errors.Draining` while
        admitted work finishes — the same graceful-drain contract as the
        TCP front end, and never a raw traceback on the operator's
        terminal.
        """
        try:
            for line in self._in:
                if not self.handle(line):
                    break
        except KeyboardInterrupt:
            self._print("ok interrupted; draining")
        finally:
            self.drain()

    def drain(self) -> None:
        """Stop accepting new work; in-flight requests finish normally.

        Releases the session's pin, if it took one.  Safe to call
        repeatedly and on an already-closed service (the caller owns the
        final ``close()``).
        """
        self._session.release()
        try:
            self.service.begin_drain()
        except Exception:  # pragma: no cover - nothing to drain
            pass

    def handle(self, line: str) -> bool:
        verb, _, rest = line.strip().partition(" ")
        if not verb:
            return True
        verb = verb.lower()
        traced = verb == "trace"
        if traced:
            verb, _, rest = rest.strip().partition(" ")
            verb = verb.lower()
        if verb in ("quit", "exit"):
            self._print("ok bye")
            return False
        if verb == "shutdown":
            self.drain()
            self._print("ok draining; bye")
            return False
        if verb == "help":
            self._print(f"ok commands:\n{reference()}\n{_ALSO}")
        elif verb not in COMMANDS:
            self._print(f"error unknown command {verb!r}; try 'help'")
        else:
            try:
                request = line_request(verb, rest)
                if traced:
                    request["trace"] = True
                reply = execute_request(self.service, self._session, request)
                for text in render_reply(verb, reply):
                    self._print(text)
            except ServiceClosed:
                self._print("error service closed")
                return False
            except ProtocolError as exc:
                self._print(f"error bad argument: {exc}")
            except ReproError as exc:
                self._print(f"error {type(exc).__name__}: {exc}")
        return True

    def _print(self, text: str) -> None:
        print(text, file=self._out, flush=True)
