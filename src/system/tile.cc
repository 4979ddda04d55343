#include "system/tile.hh"

// Tile is header-only; translation unit anchors the build and
// instantiates the L2 template configuration.

namespace lacc {

template class SetAssocCache<L2Meta, true, CoreLocality>;

} // namespace lacc
