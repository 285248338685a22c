// PhoneBit — umbrella public header.
//
// #include "core/phonebit.hpp" pulls in the whole public inference API:
// simulated device, engine, layers, converter and artifact format.
#pragma once

#include "core/artifact.hpp"
#include "core/binarize.hpp"
#include "core/binary_conv.hpp"
#include "core/bn_fold.hpp"
#include "core/converter.hpp"
#include "core/dense.hpp"
#include "core/engine.hpp"
#include "core/float_conv.hpp"
#include "core/float_model.hpp"
#include "core/input_conv.hpp"
#include "core/layer.hpp"
#include "core/network.hpp"
#include "core/options.hpp"
#include "core/plan.hpp"
#include "core/pooling.hpp"
