"""Result containers, the content-hash result cache, and table formatting."""

from .results import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    SweepRecord,
    content_hash,
)
from .tables import format_table, format_value, print_table

__all__ = ["CACHE_FORMAT_VERSION", "ResultCache", "SweepRecord",
           "content_hash", "format_table", "format_value", "print_table"]
