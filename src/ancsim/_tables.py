"""CSV tables: every value as CPython's %.17g, and the fast tables streamed
from a forked writer while the arms run.

``_write_columns`` writes any table of equal-length columns. ``_write_fast``
writes the fast.csv tables of one or more arms of one record, formatting
their shared columns once. ``_FastWriter`` runs it in a forked process fed
by the arm loop's progress, or in this process where forking is unsafe.
"""

from __future__ import annotations

import contextlib
import math
import os

import numpy as np

from .lifting import ExogenousRecord


# Values per chunk that ``_write_columns`` formats, in the main process: a
# wide table gets proportionally fewer rows. A chunk's fields and bytes take
# 64 KiB each, and the kernel's temporaries 16-48 KiB; 4000-value chunks
# wrote about 10% faster but left about 0.3 MB more peak RSS behind on
# held_check, whose tables this process writes.
_CHUNK_VALUES = 2048
# Values per chunk of ``_write_fast``, which runs in the forked writer
# (here only where nothing forks), whose memory no command reports. On
# compare_long's 512000 values the kernel took about 110 ns a value at 2048,
# 85 at 4096 and 8192, and 145 at 16384; the whole write took the least at
# 8192. The writer's peak RSS is about 1.3 MB above what 2048 left (31.7 ->
# 33.0 MB on compare_long).
_FAST_CHUNK_VALUES = 8192
# Chunks of fewer values are formatted value by value: the kernel's fixed
# cost, about 0.15 ms a call, exceeds CPython's per-value cost below about
# 150-200 values (a 20-row sweep table has 140).
_KERNEL_MIN_VALUES = 256


def _format_values(values: np.ndarray, fields: np.ndarray) -> None:
    """``'%.17g' % x`` of each value, NUL-padded into its 32-byte row of ``fields``.

    A chunk of at least ``_KERNEL_MIN_VALUES`` goes through the array kernel
    of ``ancsim._g17``, loaded on first use; the values it leaves, and every
    value of a smaller chunk, are formatted one at a time.
    """
    slow = slice(None)
    if values.size >= _KERNEL_MIN_VALUES:
        from . import _g17

        slow = _g17.format_fields(values, fields)
        values = values[slow]
    if values.size:
        text = np.array(["%.17g" % x for x in values.tolist()], dtype="S32")
        fields[slow] = text.view(np.uint64).reshape(-1, 4)


def _separate(fields: np.ndarray) -> None:
    """End each of the (rows, columns, 4) fields with its separator: a comma,
    and a newline after the last column."""
    last = fields.view(np.uint8)[:, :, -1]
    last[:] = ord(",")
    last[:, -1] = ord("\n")


def _write_columns(path: str, header: list[str], columns) -> None:
    """Write equal-length 1-D columns as CSV, streamed in row chunks.

    Every number prints as CPython's ``'%.17g' % float(x)``, which for
    integers and booleans up to 2^53 is also their ``%d``. Each value takes
    one 32-byte field of one reused buffer: its text NUL-padded to 31 bytes,
    then the separator. A chunk of about ``_CHUNK_VALUES`` values is
    formatted at a time, and its NUL padding deleted as it is written.
    Text columns, and integer columns past 2^53, are encoded into their
    fields instead (31 bytes at most). A key/value table passes
    ``zip(*items)``, so its values form one float64 column.
    """
    columns = [np.asarray(c) for c in columns]
    text = {j: np.array([str(x).encode("utf-8") for x in c.tolist()], dtype=bytes)
            for j, c in enumerate(columns)
            if c.dtype.kind == "U"
            or c.dtype.kind in "iu" and c.size and (c.min() < -2**53 or c.max() > 2**53)}
    if any(enc.itemsize > 31 for enc in text.values()):
        raise ValueError("text entries longer than 31 bytes")
    numbers = [np.zeros(len(c)) if j in text else c for j, c in enumerate(columns)]
    n_rows, n_cols = len(columns[0]), len(columns)
    rows = max(1, _CHUNK_VALUES // n_cols)
    buf = np.empty((min(rows, n_rows), n_cols, 4), np.uint64)
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, n_rows, rows):
            chunk = buf[:min(rows, n_rows - start)]
            stop = start + len(chunk)
            values = np.stack([c[start:stop] for c in numbers], axis=1, dtype=np.float64)
            _format_values(values.reshape(-1), chunk.reshape(-1, 4))
            for j, enc in text.items():
                chunk[:, j] = enc[start:stop].astype("S32").view(np.uint64).reshape(-1, 4)
            _separate(chunk)
            fh.write(chunk.tobytes().translate(None, b"\0"))


def _write_fast(paths, t, x, d, u, ws, es, ready) -> list[OSError]:
    """Write each arm's fast.csv (columns t, x, d, w, e, u) as its rows become final.

    The arms share the columns ``t, x, d, u``; ``ws[a]`` and ``es[a]`` are
    arm a's. ``ready`` yields, per arm, how many leading rows are final; an
    arm whose count trails another's has stopped for good. So each chunk of
    about ``_FAST_CHUNK_VALUES`` values formats the shared columns once for
    every arm it still writes, and each arm's rows are a selection of its
    fields. The values, the fields and the selection each take one buffer,
    allocated once. A file that fails is dropped and the others go on;
    returns the errors.
    """
    files, errors = {}, []

    def write(a: int, data: bytes) -> None:
        try:
            files[a].write(data)
        except OSError as exc:
            errors.append(exc)
            with contextlib.suppress(OSError):
                files.pop(a).close()

    for a, path in enumerate(paths):
        try:
            files[a] = open(path, "wb")
        except OSError as exc:
            errors.append(exc)
    try:
        for a in list(files):
            write(a, b"t,x,d,w,e,u\n")
        width = 4 + 2 * len(paths)
        rows, done = max(1, _FAST_CHUNK_VALUES // width), 0
        values, fields = np.empty(rows * width), np.empty((rows * width, 4), np.uint64)
        own = np.empty(rows * 6 * 4, np.uint64)
        for counts in ready:
            while arms := [a for a in files if counts[a] > done]:
                stop = min(done + rows, max(counts[a] for a in arms))
                columns = [t, x, d] + [c[a] for a in arms for c in (ws, es)] + [u]
                chunk = values[:(stop - done) * len(columns)].reshape(stop - done, -1)
                np.stack([c[done:stop] for c in columns], axis=1, out=chunk)
                text = fields[:chunk.size]
                _format_values(chunk.reshape(-1), text)
                text = text.reshape(chunk.shape + (4,))
                _separate(text)
                for j, a in enumerate(arms):
                    n = min(counts[a], stop) - done
                    sel = own[:n * 6 * 4].reshape(n, 6, 4)
                    np.take(text[:n], [0, 1, 2, 3 + 2 * j, 4 + 2 * j, len(columns) - 1],
                            axis=1, out=sel, mode="clip")
                    write(a, sel.tobytes().translate(None, b"\0"))
                done = stop
    finally:
        for fh in files.values():
            fh.close()
    return errors


def _shared_empty(shape) -> np.ndarray:
    """An uninitialized float64 array in a shared anonymous mapping, which a
    forked process sees the parent's writes to."""
    import mmap  # loaded on first use: only run and compare need it

    count = math.prod(shape)
    try:
        buf = mmap.mmap(-1, 8 * count)
    except OSError as exc:  # ENOMEM, as numpy's own allocations raise it
        raise MemoryError(f"cannot map {8 * count} bytes: {exc}") from None
    return np.frombuffer(buf, np.float64, count).reshape(shape)


def _thread_count() -> int:
    """OS threads of this process (/proc/self/stat field 20), 1 where that file does not exist."""
    try:
        with open("/proc/self/stat", "rb") as fh:
            stat = fh.read()
    except OSError:
        return 1
    return int(stat[stat.rindex(b")") + 1:].split()[17])


class _FastWriter:
    """The fast.csv tables of a run's arms, written while the arm loop runs.

    ``start`` allocates the loop's w and e histories in shared memory, makes
    the tables' directory and forks one process that reads them;
    ``progress``, due every ``every`` periods, sends it the period count and
    each arm's ``n_completed``, from which it writes every final row;
    ``close`` ends the stream and reaps it, or, for a run that failed, stops
    it and removes its tables, and the directory if ``start`` made it and
    nothing else is in it. Where ``os.fork`` is missing or fails, or
    other OS threads run (a fork copies none of them, and Python 3.12+
    warns), nothing forks and ``close`` writes the tables in this process.
    Either way each file holds the rows final at the last ``progress``.
    """

    every = 64

    def __init__(self, paths: list[str], h: float, record: ExogenousRecord) -> None:
        self.paths, self.h, self.record = paths, h, record
        self.pid = self.counts = self.made = None

    def start(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        """The w and e histories of ``shape`` (arms, periods, L, ...), arm a's in row a."""
        self.w, self.e = _shared_empty((2, *shape))
        directory = os.path.dirname(self.paths[0])
        self.made = None if os.path.isdir(directory) else directory
        os.makedirs(directory, exist_ok=True)
        if hasattr(os, "fork") and _thread_count() == 1:
            self._fork()
        return self.w, self.e

    def _fork(self) -> None:
        progress_r, progress_w = os.pipe()
        report_r, report_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (progress_r, progress_w, report_r, report_w):
                os.close(fd)
            return
        if pid == 0:  # leave through os._exit only: no return, no stdio flush
            try:
                os.close(progress_w)
                os.close(report_r)
                errors = self._write(self._messages(progress_r))
                if errors:
                    os.write(report_w, "; ".join(map(str, errors)).encode("utf-8", "replace"))
                os._exit(1 if errors else 0)
            except BaseException as exc:
                os.write(report_w, (str(exc) or type(exc).__name__).encode("utf-8", "replace"))
            finally:
                os._exit(1)
        os.close(progress_r)
        os.close(report_w)
        self.pid, self._progress, self._report = pid, progress_w, report_r

    def progress(self, periods: int, n_completed: np.ndarray) -> None:
        """Periods done so far and ``n_completed`` of every arm."""
        if self.pid is None:
            self.counts = self._final_rows(periods, n_completed.tolist())
            return
        try:
            os.write(self._progress, np.append(periods, n_completed).astype(np.int64).tobytes())
        except OSError:
            pass  # the writer has exited; close() reports why

    def close(self, abort: bool = False) -> str:
        """End the stream and reap the writer, or write here; returns the failures' text.

        With ``abort`` (the arms did not finish) nothing is written here, a
        forked writer is killed and the tables it began are removed, and the
        directory ``start`` made is removed if nothing else is in it.
        """
        if self.pid is None:
            if not abort:
                return "" if self.counts is None else "; ".join(map(str, self._write([self.counts])))
        else:
            os.close(self._progress)
            if abort:
                import signal

                os.kill(self.pid, signal.SIGKILL)
            with os.fdopen(self._report, "rb") as pipe:
                failure = pipe.read().decode("utf-8", "replace")
            status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = None
            if not abort:
                return failure or (f"fast table writer exited with code {status}" if status else "")
            for path in self.paths:
                with contextlib.suppress(OSError):
                    os.remove(path)
        if self.made is not None:
            with contextlib.suppress(OSError):  # not empty: something else was written there
                os.rmdir(self.made)
        return ""

    def _final_rows(self, periods: int, n_completed: list[int]) -> list[int]:
        L = self.record.x.shape[1]
        return [min(periods, k) * L for k in n_completed]

    def _messages(self, fd: int):
        """Final row counts of each arm, one per progress message, until the pipe closes."""
        size = 8 * (1 + len(self.paths))
        with os.fdopen(fd, "rb") as pipe:
            while len(msg := pipe.read(size)) == size:
                periods, *n_completed = np.frombuffer(msg, np.int64).tolist()
                yield self._final_rows(periods, n_completed)

    def _write(self, ready) -> list[OSError]:
        rec, N, L = self.record, *self.record.x.shape
        return _write_fast(self.paths, np.arange(N * L) * (self.h / L),
                           rec.x.reshape(-1), rec.d.reshape(-1), rec.u.reshape(-1),
                           self.w.reshape(len(self.w), -1), self.e.reshape(len(self.e), -1), ready)
