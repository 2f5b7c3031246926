"""Times in seconds at a fixed reference speed.

The CPU speed of a shared host changes from one stretch of seconds to the
next: other tenants load the same cores, and the same pure-Python work
then takes up to twice as long, for seconds or minutes at a time. A
`Section` therefore also times a fixed pure-Python loop just before and
just after the code it measures, and reports the section's time scaled by
NOMINAL_S over the loop's mean time. A section that took as long as
REF_LOOPS loops at one speed reads the same at another speed.

The loop is part of the benchmark, not of the package, so a change to the
package moves the section and not the yardstick.
"""

import time

REF_LOOPS = 2         # reference loops timed on each side of a section
# nominal time of one reference loop: about its median on the machine in README.md
NOMINAL_S = 0.003


def reference_loop():
    """Fixed pure-Python work: small-int arithmetic and dict stores."""
    total = 0
    seen = {}
    for i in range(20_000):
        total += i * i & 0xFF
        seen[i & 1023] = total
    return total


def loop_seconds():
    """Mean time of one reference loop over REF_LOOPS of them."""
    start = time.perf_counter()
    for _ in range(REF_LOOPS):
        reference_loop()
    return (time.perf_counter() - start) / REF_LOOPS


def at_reference_speed(seconds, loop_s):
    """`seconds` measured while one reference loop took `loop_s`, scaled to
    the speed at which it takes NOMINAL_S."""
    return seconds * NOMINAL_S / loop_s


class Section:
    """`with Section() as s:` times its body; then `s.seconds` is the wall
    time and `s.normalised` that time at reference speed. Exceptions pass
    through, and the section is timed all the same."""

    def __enter__(self):
        self.before = loop_seconds()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info):
        self.seconds = time.perf_counter() - self.start
        self.after = loop_seconds()
        self.normalised = at_reference_speed(self.seconds, (self.before + self.after) / 2)
        return False
