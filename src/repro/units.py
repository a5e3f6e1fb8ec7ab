"""Unit constants.

Conventions used throughout the library:

* **Rates** are floats in bits per second.
* **Data volumes** are floats (or ints) in bytes.
* **Time** is in seconds.

The paper quotes rates in Mbit/s and Gbit/s and data in MBytes/GBytes, so the
constants below keep experiment code readable, e.g. ``rate = 300 * MBITPS`` or
``bytes_to_send = 100 * MBYTE``.
"""

from __future__ import annotations

# --- rate units (bits per second) -------------------------------------------
BITPS = 1.0
KBITPS = 1e3
MBITPS = 1e6
GBITPS = 1e9

# --- data units (bytes) ------------------------------------------------------
BYTE = 1.0
KBYTE = 1e3
MBYTE = 1e6
GBYTE = 1e9
KIBYTE = 1024.0
MIBYTE = 1024.0 ** 2
GIBYTE = 1024.0 ** 3

# --- time units (seconds) ----------------------------------------------------
SECOND = 1.0
MILLISECOND = 1e-3
MICROSECOND = 1e-6
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0

# Bits per byte, used when converting between data volume and transfer time.
BITS_PER_BYTE = 8.0
