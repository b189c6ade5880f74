"""The permission modes a ledger file names.

They live apart from the ledger so that the CLI can offer them as choices
without loading the ledger module.
"""

from enum import Enum


class LedgerMode(str, Enum):
    PUBLIC_PERMISSIONED = "public-permissioned"
    PRIVATE_PERMISSIONED = "private-permissioned"
